// Command perfbench is the repository's dual-clock benchmark. It boots the
// query service (internal/serve) in-process behind a loopback HTTP listener,
// or drives the public gb facade directly, on seeded R-MAT inputs; checks
// every answer against its own serial reference; and prints wall-clock
// end-to-end metrics (untraced run) or the per-layer table (traced run).
//
//	perfbench --workload traverse --seed 1 --seconds 10 --trace 0
//
// Workloads: traverse, analytics, write-mix, graph500 (see README.md). The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/gb"
)

var workloads = []string{"traverse", "analytics", "write-mix", "graph500"}

const maxSetups = 50

// warmup is the untimed traffic a workload runs before its window. On
// write-mix the reader's goodput climbs by a third over the first ~15 s of
// paced writes before it levels off; the other workloads start level.
func warmup(workload string) time.Duration {
	if workload == "write-mix" {
		return 16 * time.Second
	}
	return 2 * time.Second
}

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Window   time.Duration // timed traffic window
	Warmup   time.Duration // untimed traffic before the window
	Trace    bool          // report the per-layer table instead of end-to-end
	Scale    int           // R-MAT scale (14; smaller in tests)
	Setups   int           // least set-ups timed for setup_s; the last one serves
	SetupFor time.Duration // keep setting up until this much time is spent
	Reps     int           // repetitions per layer probe
	Out      io.Writer     // human-readable report
}

// Report is the final JSON line.
type Report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloads, "|"))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "timed window in seconds")
		tr      = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if !slices.Contains(workloads, *wl) || *seconds <= 0 || (*tr != 0 && *tr != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	rep, err := Run(Config{
		Workload: *wl, Seed: *seed, Window: time.Duration(*seconds * float64(time.Second)), Warmup: warmup(*wl),
		Trace: *tr == 1, Scale: defaultScale, Setups: 5, SetupFor: 2 * time.Second, Reps: 5, Out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sut is the system under test after one set-up.
type sut struct {
	srv     *Server
	clients []*Client
	ctx     *gb.Context // graph500
	m       *gb.Matrix[float64]
}

func (s *sut) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// Run executes one benchmark run.
func Run(cfg Config) (*Report, error) {
	nBatches := batchesSpare
	if cfg.Workload == "write-mix" {
		nBatches += int((cfg.Warmup+cfg.Window).Seconds()*writerRate) + 2
	}
	in, err := MakeInputs(cfg.Seed, cfg.Scale, nBatches)
	if err != nil {
		return nil, err
	}
	g := in.Graph
	fmt.Fprintf(cfg.Out, "# perfbench workload=%s seed=%d window=%s trace=%v\n", cfg.Workload, cfg.Seed, cfg.Window, cfg.Trace)
	fmt.Fprintf(cfg.Out, "# graph: rmat scale=%d ef=%d undirected n=%d nnz=%d hash=%016x; %d sources, %d write batches\n",
		cfg.Scale, edgeFactor, g.NRows, g.NNZ(), in.Hash, len(in.Sources), len(in.Batches))

	chk := NewChecker(in.Temporal)
	chk.Prepare(in.Sources)
	chk.Labels(0)
	bodies := make([][]byte, len(in.Batches))
	for k, b := range in.Batches {
		if bodies[k], err = json.Marshal(b); err != nil {
			return nil, err
		}
	}
	plan := planTraffic(cfg, in)

	// Set-up, timed at least cfg.Setups times and for at least
	// cfg.SetupFor (at most maxSetups times); the last system serves the
	// window.
	var setupS []float64
	var sys *sut
	spent := time.Duration(0)
	for {
		t0 := time.Now()
		s, err := setUp(cfg.Workload, in, plan, bodies)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
		if len(setupS) >= maxSetups || (len(setupS) >= cfg.Setups && spent >= cfg.SetupFor) {
			sys = s
			break
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}

	// Warm-up traffic, untimed but checked; on write-mix it commits the
	// batches after the set-up's, and the window's writer goes on from there.
	rep := &Report{Correct: true}
	first := 1
	if cfg.Warmup > 0 {
		wu, err := runWindow(cfg, in, chk, plan, bodies, sys, cfg.Warmup, first)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		rep.Correct, rep.Attempted, rep.Failed = wu.correct(), len(wu.results), wu.failed()
		first += len(wu.results) - len(wu.reads())
		fmt.Fprintf(cfg.Out, "# warm-up %.3fs, %d ops attempted, %d failed\n", wu.elapsed.Seconds(), len(wu.results), wu.failed())
	}
	win, err := runWindow(cfg, in, chk, plan, bodies, sys, cfg.Window, first)
	if err != nil {
		sys.close()
		return nil, err
	}
	vals := win.endToEnd()
	vals["setup_s"] = median(setupS)

	rep.Correct = rep.Correct && win.correct()
	rep.Attempted += len(win.results)
	rep.Failed += win.failed()
	printWindow(cfg.Out, win, vals, setupS)

	list := endToEnd
	if cfg.Trace {
		list = perLayer()
		lv, ok, err := traceLayers(cfg, in, chk, sys, win)
		if err != nil {
			sys.close()
			return nil, err
		}
		rep.Correct = rep.Correct && ok
		for k, v := range lv {
			vals[k] = v
		}
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	var missing []string
	rep.Metrics, missing = emit(list, vals)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if cfg.Trace {
		printLayers(cfg.Out, list, rep.Metrics)
	}
	return rep, nil
}

// Plan is the seeded traffic of a run: one query list per closed-loop
// client, and the warm-up ops of set-up.
type Plan struct {
	clients [][]Query
	warm    []Query
}

// planTraffic draws each client's op sequence: the workload's op ratio,
// shuffled within each block, over Graph500 sources.
func planTraffic(cfg Config, in *Inputs) Plan {
	var block []string
	clients := 2
	var think time.Duration
	switch cfg.Workload {
	case "traverse":
		// BFS only: every SSSP reply on these graphs is a 200 with an empty
		// body (unreachable distances are +Inf, which JSON cannot encode;
		// see README.md), and no op of a timed workload may fail. The
		// traced run still sends SSSP (serve.sssp.fail_frac).
		block = []string{"bfs"}
		// Two BFS-only clients whose requests land in one batch window
		// get both replies at once and stay in step, or else stay out of
		// step, for a whole run. A seeded pause of up to twice the batch
		// window before each request re-draws their phase every time.
		think = 2 * serverConfig().BatchWindow
	case "analytics":
		block = []string{"pagerank", "cc"}
	case "write-mix":
		block = []string{"bfs", "bfs", "bfs", "pagerank"}
		clients = 1 // the reader; the writer is paced separately
	case "graph500":
		block = []string{"bfs"}
		clients = 1
	}
	var p Plan
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(subSeed(cfg.Seed, streamClients+c)))
		var qs []Query
		for len(qs) < 4096 {
			ops := append([]string(nil), block...)
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			for _, op := range ops {
				q := newQuery(op, in.Sources[rng.Intn(len(in.Sources))])
				if think > 0 {
					q.Think = time.Duration(rng.Int63n(int64(think)))
				}
				qs = append(qs, q)
			}
		}
		p.clients = append(p.clients, qs)
		for _, q := range qs[:len(block)] {
			if !seen[q.Op] {
				seen[q.Op] = true
				p.warm = append(p.warm, q)
			}
		}
	}
	return p
}

// setUp builds the system under test and runs one warm-up op of each type
// the workload sends: serve.New + LoadGraph + listener, or gb.New +
// MatrixFromCSR.
func setUp(workload string, in *Inputs, plan Plan, bodies [][]byte) (*sut, error) {
	if workload == "graph500" {
		ctx, err := gb.New(gb.Locales(4), gb.Threads(4))
		if err != nil {
			return nil, err
		}
		m := gb.MatrixFromCSR(ctx, in.Graph)
		if _, err := gb.BFS(ctx, m, plan.warm[0].Source); err != nil {
			return nil, fmt.Errorf("warm-up bfs: %w", err)
		}
		return &sut{ctx: ctx, m: m}, nil
	}
	srv, err := startServer(in.Graph)
	if err != nil {
		return nil, err
	}
	s := &sut{srv: srv}
	for c := range plan.clients {
		s.clients = append(s.clients, newClient(srv.URL, fmt.Sprintf("client-%d", c)))
	}
	if workload == "write-mix" {
		// The writer follows the readers; batch 0 is its warm-up.
		s.clients = append(s.clients, newClient(srv.URL, "writer"))
		if r := writeBatch(s.clients[len(plan.clients)], bodies[0], []byte("{}"), 1); r != "" {
			s.close()
			return nil, fmt.Errorf("warm-up write: %s", r)
		}
	}
	// Warm-up answers are not checked; the window checks every answer.
	for _, q := range plan.warm {
		if _, err := s.clients[0].post("/query", q.body); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", q.Op, err)
		}
	}
	return s, nil
}

// Window is what the timed traffic window measured.
type Window struct {
	results  []Result
	elapsed  time.Duration
	cpu      time.Duration
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	heapLive uint64
}

// runWindow drives the workload's traffic for dur; the writer's first batch
// is bodies[first].
func runWindow(cfg Config, in *Inputs, chk *Checker, plan Plan, bodies [][]byte, sys *sut, dur time.Duration, first int) (*Window, error) {
	w := &Window{}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	deadline := t0.Add(dur)

	parts := make([][]Result, len(plan.clients)+1)
	var wg sync.WaitGroup
	if cfg.Workload == "graph500" {
		parts[0] = graph500Loop(sys.ctx, sys.m, chk, in.Sources, t0, deadline)
	} else {
		for c := range plan.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[c] = closedLoop(sys.clients[c], chk, plan.clients[c], t0, deadline, in.Epochs())
			}()
		}
		if cfg.Workload == "write-mix" {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[len(plan.clients)] = pacedWriter(sys.clients[len(plan.clients)], bodies, first, t0, deadline)
			}()
		}
		wg.Wait()
	}
	w.elapsed = time.Since(t0)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	runtime.ReadMemStats(&w.mem1)
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second drops them, so only reachable data remains.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	w.heapLive = live.HeapAlloc
	for _, p := range parts {
		w.results = append(w.results, p...)
	}
	if len(w.results) == 0 {
		return nil, fmt.Errorf("no op completed in the window")
	}
	return w, nil
}

// graph500Loop calls gb.BFS in-process over the Graph500 sources from t0
// until deadline, checking each result.
func graph500Loop(ctx *gb.Context, m *gb.Matrix[float64], chk *Checker, sources []int, t0, deadline time.Time) []Result {
	var out []Result
	for i := 0; time.Now().Before(deadline); i++ {
		src := sources[i%len(sources)]
		e0 := ctx.Elapsed()
		start := time.Now()
		res, err := gb.BFS(ctx, m, src)
		done := time.Now()
		r := Result{Op: "bfs", LatMS: ms(done.Sub(start)), ModeledMS: (ctx.Elapsed() - e0) * 1e3, At: done.Sub(t0)}
		if err != nil {
			r.Reason = "error"
		} else {
			r.Decoded = true
			r.Reason = chk.CheckBFS(0, src, res.Level, res.Parent)
		}
		out = append(out, r)
	}
	return out
}

// cpuTime is the process's user+system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (w *Window) reads() []Result {
	var out []Result
	for _, r := range w.results {
		if !r.Write {
			out = append(out, r)
		}
	}
	return out
}

// batchMean is the mean number of BFS requests per MSBFS run the service
// made, from the response batch field (0 without batched replies).
func (w *Window) batchMean() float64 {
	requests, runs := 0.0, 0.0
	for _, r := range w.reads() {
		if r.Op == "bfs" && r.Batch > 0 {
			requests++
			runs += 1 / float64(r.Batch)
		}
	}
	return ratio(requests, runs)
}

func (w *Window) failed() int {
	n := 0
	for _, r := range w.results {
		if r.Reason != "" {
			n++
		}
	}
	return n
}

// correct is false when any op returned an answer that disagrees with the
// reference; ops that returned no answer count only as failed.
func (w *Window) correct() bool {
	for _, r := range w.results {
		if wrongReasons[r.Reason] {
			return false
		}
	}
	return true
}

// The window is cut into at most windowSlices equal slices of time, with at
// least sliceOps reads a slice on average.
const (
	windowSlices = 10
	sliceOps     = 20
)

// sliceReads groups the window's reads by the slice they completed in, and
// returns the length of a slice in seconds.
func (w *Window) sliceReads() ([][]Result, float64) {
	reads := w.reads()
	n := min(windowSlices, max(1, len(reads)/sliceOps))
	out := make([][]Result, n)
	span := w.elapsed / time.Duration(n)
	for _, r := range reads {
		k := min(int(r.At/span), n-1)
		out[k] = append(out[k], r)
	}
	return out, span.Seconds()
}

// endToEnd computes the window's end-to-end figures (all but setup_s),
// including those reported only with the per-layer table. Goodput and
// latency quantiles are medians over the window's slices, so a few seconds
// of interference from outside the process move them little.
func (w *Window) endToEnd() map[string]float64 {
	var rate, p50, p90 []float64
	parts, secs := w.sliceReads()
	for _, sl := range parts {
		var lat []float64
		good := 0
		for _, r := range sl {
			lat = append(lat, r.LatMS)
			if r.Reason == "" {
				good++
			}
		}
		rate = append(rate, float64(good)/secs)
		if len(lat) > 0 {
			p50 = append(p50, quantile(lat, 0.5))
			p90 = append(p90, quantile(lat, 0.9))
		}
	}
	var modeled, ingest []float64
	for _, r := range w.results {
		if r.Write {
			ingest = append(ingest, r.LatMS)
		} else if r.ModeledMS > 0 {
			modeled = append(modeled, r.ModeledMS)
		}
	}
	return map[string]float64{
		"goodput_qps":   median(rate),
		"p50_ms":        median(p50),
		"p90_ms":        median(p90),
		"cpu_ms_per_op": ms(w.cpu) / float64(len(w.results)),
		"heap_mb":       float64(w.heapLive) / 1e6,
		"error_frac":    float64(w.failed()) / float64(len(w.results)),
		"modeled_ms":    mean(modeled),
		"ingest_p50_ms": quantile(ingest, 0.5),
		"ingest_p90_ms": quantile(ingest, 0.9),
	}
}

// printWindow writes the human-readable end-to-end report, failures
// itemised by op and reason.
func printWindow(out io.Writer, w *Window, vals map[string]float64, setupS []float64) {
	byOp := map[string]int{}
	fails := map[string]int{}
	for _, r := range w.results {
		byOp[r.Op]++
		if r.Reason != "" {
			fails[r.Op+" "+r.Reason]++
		}
	}
	fmt.Fprintf(out, "# window %.3fs, %d ops attempted, %d failed;", w.elapsed.Seconds(), len(w.results), w.failed())
	for _, op := range sortedKeys(byOp) {
		fmt.Fprintf(out, " %s=%d", op, byOp[op])
	}
	fmt.Fprintln(out)
	for _, k := range sortedKeys(fails) {
		fmt.Fprintf(out, "# failed %s: %d\n", k, fails[k])
	}
	if b := w.batchMean(); b > 0 {
		fmt.Fprintf(out, "# %.3f BFS requests per batched run\n", b)
	}
	fmt.Fprintf(out, "# %d set-ups, median %.4fs\n", len(setupS), median(setupS))
	units := map[string]string{"error_frac": "frac", "modeled_ms": "ms", "ingest_p50_ms": "ms", "ingest_p90_ms": "ms"}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, k := range sortedKeys(units) {
		fmt.Fprintf(out, "e2e %-14s %12.4f %s\n", k, vals[k], units[k])
	}
}

func printLayers(out io.Writer, list []Metric, vals map[string]Value) {
	for _, m := range list {
		fmt.Fprintf(out, "layer %-44s %14.4f %s\n", m.Name, vals[m.Name].Value, m.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
