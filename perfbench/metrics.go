package main

import (
	"math"
	"slices"
	"sort"
)

// Metric names one reported figure. The lists below are the benchmark's
// contract with BENCHMARK.json: an untraced run emits exactly endToEnd, a
// traced run exactly perLayer() (main_test.go holds the two in step).
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the user-visible figures every workload reports, each never
// zero on any workload.
var endToEnd = []Metric{
	{"goodput_qps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
}

// Ops the serve layer is measured on, the gb ops probed, and for each probed
// op the kernel spans whose modeled time and call count are reported.
var (
	serveOps = []string{"bfs", "sssp", "pagerank", "cc"}
	gbOps    = []string{"bfs", "msbfs1", "msbfs2", "sssp", "pagerank", "cc", "triangles"}
	summa    = []string{"SUMMABroadcast", "SUMMAMultiply", "SUMMAMerge"}
	opSpans  = map[string][]string{
		"bfs":       {"FusedBFSRound", "SpMSpVShm"},
		"msbfs1":    summa,
		"msbfs2":    summa,
		"sssp":      {"FusedSpMVUpdate"},
		"pagerank":  {"FusedSpMVUpdate"},
		"cc":        {"FusedSpMVUpdate"},
		"triangles": summa,
	}
	mixSpans    = []string{"FusedBFSRound", "SpMSpVShm", "FusedSpMVUpdate", "SUMMABroadcast", "SUMMAMultiply", "SUMMAMerge"}
	collectives = []string{"SUMMABroadcast", "SparseRowAllGather", "ColMergeScatter", "RowAllGather", "ColReduceScatter", "AllReduce"}
	// inspectChoices maps each dispatch choice (the Dispatch span's
	// strategy tag) to its inspector axis.
	inspectChoices = []struct{ axis, choice string }{
		{"comm", "fine"}, {"comm", "bulk"},
		{"dir", "push"}, {"dir", "pull"},
		{"place", "gather"}, {"place", "replicate"},
	}
)

// perLayer lists the traced run's metrics in report order.
func perLayer() []Metric {
	var out []Metric
	add := func(name, unit, better string) { out = append(out, Metric{name, unit, better}) }
	// End-to-end figures that are zero on some workloads, so they cannot
	// carry a bound; the traced run's traffic window reports them.
	add("error_frac", "frac", "lower")
	add("modeled_ms", "ms", "lower")
	add("ingest_p50_ms", "ms", "lower")
	add("ingest_p90_ms", "ms", "lower")
	for _, op := range serveOps {
		add("serve."+op+".p50_ms", "ms", "lower")
		add("serve."+op+".self_ms", "ms", "lower")
		add("serve."+op+".resp_kb", "KB", "lower")
		add("serve."+op+".fail_frac", "frac", "lower")
	}
	add("serve.batch_mean", "count", "higher")
	add("serve.shed_frac", "frac", "lower")
	add("serve.modeled_missing_frac", "frac", "lower")
	add("serve.mutate.p50_ms", "ms", "lower")
	add("serve.flush.p50_ms", "ms", "lower")
	add("load.ingest_late_ms", "ms", "lower")
	for _, op := range gbOps {
		add("gb."+op+".wall_ms", "ms", "lower")
		add("gb."+op+".modeled_ms", "ms", "lower")
		add("gb."+op+".wall_per_modeled", "ratio", "lower")
		add("gb."+op+".msgs", "count", "lower")
		add("gb."+op+".rounds", "count", "lower")
	}
	add("gb.bfs.teps", "edges/s", "higher")
	add("gb.trace_overhead_frac", "frac", "lower")
	for _, op := range gbOps {
		for _, sp := range opSpans[op] {
			add("core."+op+"."+sp+".modeled_ms", "ms", "lower")
			add("core."+op+"."+sp+".calls", "count", "lower")
		}
	}
	for _, sp := range mixSpans {
		add("mix."+sp+".calls", "count", "lower")
	}
	for _, c := range collectives {
		add("comm."+c+".msgs", "count", "lower")
		add("comm."+c+".bytes", "B", "lower")
	}
	for _, ic := range inspectChoices {
		add("inspect."+ic.axis+"."+ic.choice+"_share", "frac", "lower")
	}
	add("dist.load_ms", "ms", "lower")
	add("dist.update_ms", "ms", "lower")
	add("dist.flush_ms", "ms", "lower")
	add("proc.alloc_kb_per_op", "KB", "lower")
	add("proc.gc_per_s", "1/s", "lower")
	add("proc.gc_pause_ms_per_s", "ms/s", "lower")
	return out
}

// Value is one emitted metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the metrics object for list from vals; a metric missing from
// vals is a bug in the benchmark.
func emit(list []Metric, vals map[string]float64) (map[string]Value, []string) {
	out := make(map[string]Value, len(list))
	var missing []string
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = Value{v, m.Unit}
	}
	return out, missing
}

// quantile returns the q-quantile of xs by linear interpolation (0 when
// empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
