package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/gb"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The traced run times calls into each layer's public functions from
// outside and reads the counters the program already reports: response
// fields, /metrics, Context.Elapsed/Messages and the modeled spans of an
// attached gb.Trace. It adds no instrumentation to the program.

// probeContext builds a gb context like the service's per-graph base context
// and the epoch-0 snapshot of the graph on it.
func probeContext(in *Inputs) (*gb.Context, *gb.Matrix[float64], error) {
	ctx, err := gb.New(gb.Locales(4), gb.Threads(4), gb.EpochPolicy{History: 8}, gb.WithRecoveryPolicy(gb.Redistribute))
	if err != nil {
		return nil, nil, err
	}
	m, _ := gb.StreamingMatrixFromCSR(ctx, in.Graph).Matrix()
	return ctx, m, nil
}

// opRun is one probed gb call.
type opRun struct {
	wallMS, modeledMS float64
	msgs              int64
	rounds            int
	reason            string // check outcome
}

// callOp runs op once on a fresh derivation of base (as the service derives
// one per query), optionally traced, and checks the answer.
func callOp(op string, base *gb.Context, m *gb.Matrix[float64], chk *Checker, src, src2 int, tr *gb.Trace) (opRun, error) {
	qc := base.WithCancelContext(context.Background())
	if tr != nil {
		qc = qc.WithTracer(tr)
	}
	mm := m.WithContext(qc)
	e0, m0 := qc.Elapsed(), qc.Messages()
	var r opRun
	var err error
	t0 := time.Now()
	switch op {
	case "bfs":
		var res *gb.BFSResult
		if res, err = gb.BFS(qc, mm, src); err == nil {
			r.wallMS = ms(time.Since(t0))
			r.rounds, r.reason = res.Rounds, chk.CheckBFS(0, src, res.Level, res.Parent)
		}
	case "msbfs1", "msbfs2":
		srcs := []int{src}
		if op == "msbfs2" {
			srcs = append(srcs, src2)
		}
		var lv [][]int64
		if lv, r.rounds, err = gb.MultiSourceBFS(mm, srcs); err == nil {
			r.wallMS = ms(time.Since(t0))
			for k, s := range srcs {
				if r.reason == "" {
					r.reason = chk.CheckBFS(0, s, lv[k], nil)
				}
			}
		}
	case "sssp":
		var d []float64
		if d, r.rounds, err = gb.SSSP(mm, src); err == nil {
			r.wallMS = ms(time.Since(t0))
			raw := make([]json.RawMessage, len(d))
			for i, x := range d {
				raw[i] = json.RawMessage(strconv.FormatFloat(x, 'g', -1, 64))
			}
			r.reason = chk.CheckSSSP(0, src, raw)
		}
	case "pagerank":
		var ranks []float64
		if ranks, r.rounds, err = gb.PageRank(mm, prDamping, 1e-6, 100); err == nil {
			r.wallMS = ms(time.Since(t0))
			r.reason = chk.CheckPageRank(0, ranks)
		}
	case "cc":
		var labels []int64
		var comps int
		if labels, comps, err = gb.ConnectedComponents(mm); err == nil {
			r.wallMS = ms(time.Since(t0))
			r.reason = chk.CheckCC(0, labels, comps)
		}
	case "triangles":
		var t int64
		if t, err = gb.TriangleCount(mm); err == nil {
			r.wallMS = ms(time.Since(t0))
			r.rounds = 1
			if t != chk.Triangles() {
				r.reason = "wrong_triangles"
			}
		}
	default:
		err = fmt.Errorf("unknown op %q", op)
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w", op, err)
	}
	r.modeledMS = (qc.Elapsed() - e0) * 1e3
	r.msgs = qc.Messages() - m0
	return r, nil
}

// roundSpans names, for the ops whose API returns no round count, the
// kernel spans that run once per round (eager or fused).
var roundSpans = map[string][]string{
	"cc":        {"FusedSpMVUpdate", "SpMVDist"},
	"triangles": {"SpGEMMDist"},
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	calls     int
	modeledNS float64
	msgs      int64
	bytes     int64
}

// walkSpans aggregates a span forest by name and counts Dispatch choices.
func walkSpans(spans []*trace.Span, agg map[string]*spanAgg, choices map[string]int) {
	for _, sp := range spans {
		a := agg[sp.Name]
		if a == nil {
			a = &spanAgg{}
			agg[sp.Name] = a
		}
		a.calls++
		a.modeledNS += sp.DurNS
		a.msgs += sp.Messages
		a.bytes += sp.Bytes
		if sp.Name == "Dispatch" {
			for _, t := range sp.Tags {
				if t.Key == "strategy" {
					choices[t.Value]++
				}
			}
		}
		walkSpans(sp.Children, agg, choices)
	}
}

// traceLayers measures the per-layer table. ok is false when a probe
// returned a wrong answer.
func traceLayers(cfg Config, in *Inputs, chk *Checker, sys *sut, win *Window) (map[string]float64, bool, error) {
	vals := map[string]float64{}
	ok := true
	note := func(reason string) {
		if wrongReasons[reason] {
			ok = false
		}
	}
	windowLayers(vals, win)
	shed, err := shedCount(sys)
	if err != nil {
		return nil, false, err
	}
	vals["serve.shed_frac"] = ratio(float64(shed), float64(len(win.reads())))

	base, m, err := probeContext(in)
	if err != nil {
		return nil, false, err
	}
	src := func(i int) int { return in.Sources[i%len(in.Sources)] }

	// gb: every op, untraced for wall-clock, then once traced for spans.
	for _, op := range gbOps {
		reps := cfg.Reps
		switch op {
		case "bfs":
			reps = graph500Keys
		case "triangles":
			reps = 0 // one traced call only: a query takes seconds
		}
		var wall, modeled, msgs, rounds, teps []float64
		for i := 0; i < reps; i++ {
			r, err := callOp(op, base, m, chk, src(i), src(i+1), nil)
			if err != nil {
				return nil, false, err
			}
			note(r.reason)
			wall = append(wall, r.wallMS)
			modeled = append(modeled, r.modeledMS)
			msgs = append(msgs, float64(r.msgs))
			rounds = append(rounds, float64(r.rounds))
			if op == "bfs" {
				teps = append(teps, chk.ReachedEdges(src(i))/(r.wallMS/1e3))
			}
		}
		tr := trace.New()
		r, err := callOp(op, base, m, chk, src(0), src(1), tr)
		if err != nil {
			return nil, false, err
		}
		note(r.reason)
		if reps == 0 {
			wall, modeled = []float64{r.wallMS}, []float64{r.modeledMS}
			msgs, rounds = []float64{float64(r.msgs)}, []float64{float64(r.rounds)}
		}
		p := "gb." + op + "."
		vals[p+"wall_ms"] = median(wall)
		vals[p+"modeled_ms"] = median(modeled)
		vals[p+"wall_per_modeled"] = median(wall) / median(modeled)
		vals[p+"msgs"] = median(msgs)
		vals[p+"rounds"] = median(rounds)
		if op == "bfs" {
			vals["gb.bfs.teps"] = harmonicMean(teps)
		}
		agg := map[string]*spanAgg{}
		walkSpans(tr.Roots(), agg, map[string]int{})
		if kernels, found := roundSpans[op]; found {
			// The API returns no round count: count the per-round kernel
			// spans of the traced call instead.
			n := 0
			for _, k := range kernels {
				if a := agg[k]; a != nil {
					n += a.calls
				}
			}
			vals[p+"rounds"] = float64(n)
		}
		for _, sp := range opSpans[op] {
			a := agg[sp]
			if a == nil {
				a = &spanAgg{}
			}
			vals["core."+op+"."+sp+".modeled_ms"] = a.modeledNS / 1e6
			vals["core."+op+"."+sp+".calls"] = float64(a.calls)
		}
	}

	// Tracing overhead on the library path: BFS with and without a tracer.
	var plain, traced []float64
	for i := 0; i < 16; i++ {
		r, err := callOp("bfs", base, m, chk, src(i), 0, nil)
		if err != nil {
			return nil, false, err
		}
		plain = append(plain, r.wallMS)
		if r, err = callOp("bfs", base, m, chk, src(i), 0, trace.New()); err != nil {
			return nil, false, err
		}
		traced = append(traced, r.wallMS)
	}
	vals["gb.trace_overhead_frac"] = median(traced)/median(plain) - 1

	if err := mixLayers(vals, cfg.Workload, in, chk, base, note); err != nil {
		return nil, false, err
	}
	if err := serveLayers(vals, cfg, in, chk, base, m, note); err != nil {
		return nil, false, err
	}
	if err := distLayers(vals, cfg, in, base); err != nil {
		return nil, false, err
	}
	return vals, ok, nil
}

// windowLayers derives the per-layer figures the traffic window itself
// reports: response fields and Go runtime counters.
func windowLayers(vals map[string]float64, w *Window) {
	decoded, missing := 0, 0
	for _, r := range w.reads() {
		if r.Decoded {
			decoded++
			if r.ModeledMS == 0 {
				missing++
			}
		}
	}
	vals["serve.batch_mean"] = w.batchMean()
	vals["serve.modeled_missing_frac"] = ratio(float64(missing), float64(decoded))
	var late []float64
	for _, r := range w.results {
		if r.Write {
			late = append(late, r.LateMS)
		}
	}
	vals["load.ingest_late_ms"] = mean(late)
	ops := float64(len(w.results))
	secs := w.elapsed.Seconds()
	vals["proc.alloc_kb_per_op"] = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / 1024 / ops
	vals["proc.gc_per_s"] = float64(w.mem1.NumGC-w.mem0.NumGC) / secs
	vals["proc.gc_pause_ms_per_s"] = float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6 / secs
}

// shedCount sums gbserve_shed_total over tenants from /metrics (0 without a
// server).
func shedCount(sys *sut) (int, error) {
	if sys.srv == nil {
		return 0, nil
	}
	c := newClient(sys.srv.URL, "metrics")
	defer c.Close()
	body, err := c.get("/metrics")
	if err != nil {
		return 0, err
	}
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gbserve_shed_total{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		n += v
	}
	return n, sc.Err()
}

// mixLayers replays the workload's op mix through gb on one traced context,
// as the service executes it at this commit (a served BFS is a one-source
// MultiSourceBFS under the batcher), and reports which kernels, collectives
// and dispatch choices it touches, per replayed op.
func mixLayers(vals map[string]float64, workload string, in *Inputs, chk *Checker, base *gb.Context, note func(string)) error {
	tr := trace.New()
	qc := base.WithTracer(tr)
	sm := gb.StreamingMatrixFromCSR(qc, in.Graph)
	var ops []string
	switch workload {
	case "traverse":
		ops = []string{"msbfs1", "msbfs1", "msbfs1", "msbfs1"}
	case "analytics":
		ops = []string{"pagerank", "cc"}
	case "write-mix":
		ops = []string{"write", "msbfs1", "msbfs1", "msbfs1", "pagerank"}
	case "graph500":
		ops = []string{"bfs", "bfs", "bfs", "bfs"}
	}
	tr.Reset()
	epoch := uint32(0)
	for i, op := range ops {
		if op == "write" {
			b := in.Batches[0]
			if err := sm.UpdateBatch(b.Rows, b.Cols, b.Vals); err != nil {
				return err
			}
			for k := range b.DelRows {
				if err := sm.Delete(b.DelRows[k], b.DelCols[k]); err != nil {
					return err
				}
			}
			if _, err := sm.Flush(); err != nil {
				return err
			}
			epoch = 1
			continue
		}
		m, _ := sm.Matrix()
		if epoch != 0 {
			// Reads after the write run on the new epoch; check them there.
			if err := mixReadAt(op, m.WithContext(qc), chk, epoch, in.Sources[i], note); err != nil {
				return err
			}
			continue
		}
		r, err := callOp(op, qc, m, chk, in.Sources[i], in.Sources[i+1], nil)
		if err != nil {
			return err
		}
		note(r.reason)
	}
	agg := map[string]*spanAgg{}
	choices := map[string]int{}
	walkSpans(tr.Roots(), agg, choices)
	n := float64(len(ops))
	get := func(name string) *spanAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	for _, sp := range mixSpans {
		vals["mix."+sp+".calls"] = float64(get(sp).calls) / n
	}
	for _, c := range collectives {
		vals["comm."+c+".msgs"] = float64(get(c).msgs) / n
		vals["comm."+c+".bytes"] = float64(get(c).bytes) / n
	}
	axis := map[string]int{}
	for _, ic := range inspectChoices {
		axis[ic.axis] += choices[ic.choice]
	}
	for _, ic := range inspectChoices {
		share := 0.0
		if axis[ic.axis] > 0 {
			share = float64(choices[ic.choice]) / float64(axis[ic.axis])
		}
		vals["inspect."+ic.axis+"."+ic.choice+"_share"] = share
	}
	return nil
}

// mixReadAt runs one read of the mix on a post-write snapshot.
func mixReadAt(op string, m *gb.Matrix[float64], chk *Checker, epoch uint32, src int, note func(string)) error {
	switch op {
	case "msbfs1":
		lv, _, err := gb.MultiSourceBFS(m, []int{src})
		if err != nil {
			return err
		}
		note(chk.CheckBFS(epoch, src, lv[0], nil))
	case "pagerank":
		ranks, _, err := gb.PageRank(m, prDamping, 1e-6, 100)
		if err != nil {
			return err
		}
		note(chk.CheckPageRank(epoch, ranks))
	default:
		return fmt.Errorf("mix read %q after a write", op)
	}
	return nil
}

// serveLayers calls the service's handler in-process, one request at a
// time, on a fresh server with the benchmark's config: per-op handler wall
// time, its self time over the matching gb call (run right after it, on the
// same graph and source), response size, and mutate/flush handling time.
func serveLayers(vals map[string]float64, cfg Config, in *Inputs, chk *Checker, base *gb.Context, m *gb.Matrix[float64], note func(string)) error {
	srv := serve.New(serverConfig())
	if err := srv.LoadGraph(graphName, in.Graph); err != nil {
		return err
	}
	h := srv.Handler()
	call := func(path string, body []byte) (Reply, float64) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("X-Tenant", "probe")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		wall := ms(time.Since(t0))
		return Reply{Status: rec.Code, Epoch: rec.Header().Get("X-GB-Epoch"), Body: rec.Body.Bytes()}, wall
	}
	// Under the batcher a served BFS runs as a one-source MultiSourceBFS.
	match := map[string]string{"bfs": "bfs", "sssp": "sssp", "pagerank": "pagerank", "cc": "cc"}
	if serverConfig().BatchWindow > 0 {
		match["bfs"] = "msbfs1"
	}
	for _, op := range serveOps {
		var wall, self, kb []float64
		fails := 0
		for i := 0; i < cfg.Reps; i++ {
			src := in.Sources[i%len(in.Sources)]
			q := newQuery(op, src)
			rp, w := call("/query", q.body)
			reason := judge(chk, q, rp, in.Epochs()).Reason
			note(reason)
			if reason != "" {
				fails++
			}
			wall = append(wall, w)
			kb = append(kb, float64(len(rp.Body))/1024)
			r, err := callOp(match[op], base, m, chk, src, src, nil)
			if err != nil {
				return err
			}
			self = append(self, w-r.wallMS)
		}
		p := "serve." + op + "."
		vals[p+"p50_ms"] = median(wall)
		vals[p+"self_ms"] = median(self)
		vals[p+"resp_kb"] = median(kb)
		vals[p+"fail_frac"] = float64(fails) / float64(cfg.Reps)
	}
	var mut, fl []float64
	for k := 0; k < cfg.Reps && k < len(in.Batches); k++ {
		body, err := json.Marshal(in.Batches[k])
		if err != nil {
			return err
		}
		rp, w := call("/graphs/"+graphName+"/mutate", body)
		if rp.Status != http.StatusOK {
			return fmt.Errorf("probe mutate: status %d", rp.Status)
		}
		mut = append(mut, w)
		rp, w = call("/graphs/"+graphName+"/flush", []byte("{}"))
		if rp.Status != http.StatusOK {
			return fmt.Errorf("probe flush: status %d", rp.Status)
		}
		fl = append(fl, w)
	}
	vals["serve.mutate.p50_ms"] = median(mut)
	vals["serve.flush.p50_ms"] = median(fl)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// distLayers times the streaming matrix directly: distributing the graph
// (what LoadGraph does) and applying and committing write batches (what
// /mutate and /flush do).
func distLayers(vals map[string]float64, cfg Config, in *Inputs, base *gb.Context) error {
	var load, upd, fl []float64
	var sm *gb.StreamingMatrix[float64]
	for i := 0; i < cfg.Reps; i++ {
		t0 := time.Now()
		sm = gb.StreamingMatrixFromCSR(base, in.Graph)
		load = append(load, ms(time.Since(t0)))
	}
	for k := 0; k < cfg.Reps && k < len(in.Batches); k++ {
		b := in.Batches[k]
		t0 := time.Now()
		if err := sm.UpdateBatch(b.Rows, b.Cols, b.Vals); err != nil {
			return err
		}
		for d := range b.DelRows {
			if err := sm.Delete(b.DelRows[d], b.DelCols[d]); err != nil {
				return err
			}
		}
		upd = append(upd, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := sm.Flush(); err != nil {
			return err
		}
		fl = append(fl, ms(time.Since(t0)))
	}
	vals["dist.load_ms"] = median(load)
	vals["dist.update_ms"] = median(upd)
	vals["dist.flush_ms"] = median(fl)
	return nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func harmonicMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += 1 / x
	}
	if s == 0 {
		return 0
	}
	return float64(len(xs)) / s
}
