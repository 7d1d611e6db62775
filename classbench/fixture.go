package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/ontology"
	"semagent/internal/storage"
	"semagent/internal/workload"
)

// semesterFixture returns a data dir holding the semester stores built
// from messages history lines, building it on first use. The fixture is
// cached under out, keyed by the benchmark binary's hash (the binary
// holds every line of code that builds the stores), so a different
// program never reuses another's stores.
func semesterFixture(out string, messages int) (string, error) {
	key, err := binaryKey()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(out, "fixtures", fmt.Sprintf("semester-%d-%s", messages, key[:16]))
	if _, err := os.Stat(filepath.Join(dir, storage.CorpusFile)); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := buildSemester(tmp, messages); err != nil {
		return "", fmt.Errorf("build semester stores: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// buildSemester runs a generated history through core.Supervisor.Process
// and saves the stores with storage.Save.
func buildSemester(dir string, messages int) error {
	sup, err := core.New(core.Config{})
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(historySeed, ontology.BuildCourseOntology())
	for _, m := range gen.Session(historyRooms, historyUsers, messages) {
		if _, err := sup.Process(m.Room, m.User, m.Sample.Text); err != nil {
			return err
		}
	}
	return storage.Save(dir, storage.Snapshot{
		Ontology: sup.Ontology(),
		Corpus:   sup.Corpus(),
		Profiles: sup.Profiles(),
		FAQ:      sup.FAQ(),
	})
}

// fixtureCorpus loads the learner corpus of the fixture dir every round
// starts from; nil for an empty data dir ("").
func fixtureCorpus(dir string) (*corpus.Store, error) {
	if dir == "" {
		return nil, nil
	}
	f, err := os.Open(filepath.Join(dir, storage.CorpusFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.LoadJSONL(f)
}

// binaryKey is the SHA-256 of the benchmark binary, which holds the
// program's code and the benchmark's.
func binaryKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return fileHash(exe)
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// freshDataDir makes dst a private copy of the fixture dir src (an
// empty dir when src is ""), so every stack starts from the same stores
// and an empty journal. The copy is synced before the round starts, so
// its writeback does not land in the round's journal fsyncs.
func freshDataDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if src == "" {
		return nil
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
