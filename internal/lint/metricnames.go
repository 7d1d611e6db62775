package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const metricNamesDoc = `enforce literal, convention-following metric names at registration sites

Metric names are a public, scrape-time API: a name computed at
runtime cannot be grepped, dashboarded against, or checked for
collisions, and a name outside the Prometheus charset is silently
unscrapable. At every metrics.Registry registration call the name
argument must be a compile-time constant string, match the
Prometheus naming grammar, and carry this module's prefix so fleet
dashboards can select semagent series. Deliberate exceptions (a
bridge re-exporting another system's names) are annotated in place:

	//semalint:allow metricnames: <reason>`

// MetricNames is the metricnames analyzer.
var MetricNames = &analysis.Analyzer{
	Name:     "metricnames",
	Doc:      metricNamesDoc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runMetricNames,
}

var (
	metricNamesPkg     = "semagent/internal/metrics"
	metricNamesMethods = "Counter,CounterFunc,Gauge,GaugeFunc,DurationHistogram,HistogramWithBounds"
	metricNamesPrefix  = "semagent_"
)

// metricNameRE is the Prometheus metric-name grammar.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func init() {
	MetricNames.Flags.StringVar(&metricNamesPkg, "metricspkg", metricNamesPkg,
		"import path of the metrics registry package")
	MetricNames.Flags.StringVar(&metricNamesMethods, "methods", metricNamesMethods,
		"comma-separated registration method names whose first argument is the metric name")
	MetricNames.Flags.StringVar(&metricNamesPrefix, "prefix", metricNamesPrefix,
		"required metric-name prefix")
}

func runMetricNames(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == metricNamesPkg {
		return nil, nil // the registry's internals pass names through
	}
	methods := make(map[string]bool)
	for _, m := range strings.Split(metricNamesMethods, ",") {
		if m = strings.TrimSpace(m); m != "" {
			methods[m] = true
		}
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != metricNamesPkg ||
			!methods[fn.Name()] || fn.Type().(*types.Signature).Recv() == nil {
			return
		}
		if len(call.Args) == 0 {
			return
		}
		arg := call.Args[0]
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.ReportRangef(arg, "metric name passed to %s must be a compile-time constant string: runtime-built names cannot be grepped or collision-checked", fn.Name())
			return
		}
		name := constant.StringVal(tv.Value)
		switch {
		case !metricNameRE.MatchString(name):
			pass.ReportRangef(arg, "metric name %q does not match the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*: the series would be unscrapable", name)
		case !strings.HasPrefix(name, metricNamesPrefix):
			pass.ReportRangef(arg, "metric name %q lacks the %q prefix: fleet dashboards select this module's series by prefix", name, metricNamesPrefix)
		}
	})
	return nil, nil
}
