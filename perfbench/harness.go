package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
)

// workload is one named set of inputs.
type workload struct {
	name    string
	sharded bool // runs on the sharded engine, at min(2, nproc) shards
	build   func(cfg *config, shards int) instance
}

func workloads() []*workload { return []*workload{rr10k, bulkRecv, webCrash} }

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is one independent build of a workload at a seed. The harness
// times its set-up steps, runs its measured window chunk by chunk, then lets
// it score the simulated outcome. Every method runs on the harness
// goroutine, between scheduler calls.
type instance interface {
	// setup builds the simulation and brings it to its steady state,
	// running each named step through ph.
	setup(ph *phaser) error
	// step runs one chunk of the measured window; done marks its end.
	step() (done bool, err error)
	// view exposes the simulation's counters.
	view() *simView
	// score drains work still in flight after the measured window,
	// verifies what the clients received, and fills in the outcome.
	score(o *outcome) error
}

// simView is what the harness reads from a simulation: its links, metric
// registries, span recorders and scheduler state.
type simView struct {
	links   []*ethernet.Segment
	regs    []*obs.Registry
	spans   []*obs.SpanRecorder
	group   *sim.ShardGroup // nil for a plain scheduler
	sched   *sim.Scheduler  // nil for the sharded engine
	checkNB bool            // gate on netbuf.Live() across chunks
}

func (v *simView) frames() (frames, bytes int64) {
	for _, l := range v.links {
		st := l.Stats()
		frames += st.Frames
		bytes += st.Bytes
	}
	return frames, bytes
}

func (v *simView) events() int64 {
	if v.group != nil {
		return int64(v.group.Executed())
	}
	return int64(v.sched.Executed())
}

func (v *simView) digests() []sim.StreamDigest {
	if v.group != nil {
		return v.group.StreamDigests()
	}
	return v.sched.StreamDigests()
}

// counters sums every registry series by base name (labels dropped);
// histograms contribute <name>.sum and <name>.count. Link and engine
// counters the registries do not carry are added under their own names.
func (v *simView) counters() map[string]float64 {
	c := map[string]float64{}
	for _, reg := range v.regs {
		for _, s := range reg.Snapshot() {
			base, _, _ := strings.Cut(s.Name, "{")
			if s.Kind == obs.KindHistogram.String() {
				c[base+".sum"] += float64(s.Sum)
				c[base+".count"] += float64(s.Count)
				continue
			}
			c[base] += float64(s.Value)
		}
	}
	f, b := v.frames()
	c["frames"], c["link_bytes"] = float64(f), float64(b)
	for _, l := range v.links {
		c["collisions"] += float64(l.Stats().Collisions)
	}
	c["events"] = float64(v.events())
	if v.group != nil {
		c["windows"] = float64(v.group.Windows())
		c["cross_posts"] = float64(v.group.CrossPosts())
	}
	return c
}

// outcome is the simulated result of one repetition: a function of the seed
// alone.
type outcome struct {
	attempted, failed int64
	bytes             int64         // verified payload bytes delivered in the window
	window            time.Duration // simulated length of the measured window
	lat               []time.Duration
	crashLat          []time.Duration // measured requests in flight between their cell's crash and takeover
	stalls            []time.Duration
	detect, takeover  []time.Duration // per cell: from the crash to detection, to takeover
	spans             int64
	problems          []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// repResult is one repetition: set-up, the measured window, and its score.
type repResult struct {
	shards   int
	setup    time.Duration // CPU
	phases   map[string]time.Duration
	cpu      time.Duration // measured window, CPU (user+sys, whole process)
	wall     time.Duration // measured window, wall clock
	frames   int64         // link frames carried in the measured window
	heapMB   float64
	allocs   uint64
	gcCPU    float64 // seconds
	delta    map[string]float64
	queue    []float64 // sampled bridge queue bytes at chunk ends
	liveBufs []int64   // netbuf.Live() at chunk ends
	out      outcome   // lat, crashLat and stalls are dropped once summarised
	print    uint64    // determinism fingerprint

	lat, crash, stall dist // summaries of out.lat, out.crashLat, out.stalls
}

// dist summarises a sample of durations, in ms: its size and nearest-rank
// percentiles.
type dist struct {
	n                  int
	p50, p90, p99, max float64
}

func summarize(ds []time.Duration) dist {
	return dist{len(ds), percentile(ds, 50), percentile(ds, 90), percentile(ds, 99), percentile(ds, 100)}
}

func (r *repResult) nsPerFrame() float64 { return float64(r.cpu.Nanoseconds()) / float64(r.frames) }

// cpuNow is the process's CPU time so far (user + system, all threads).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds is the runtime's estimate of CPU spent in garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// phaser times the named set-up steps of one repetition.
type phaser struct {
	tr  *tracer
	res *repResult
}

func (p *phaser) do(name string, fn func() error) error {
	id := p.tr.begin(name)
	c0 := cpuNow()
	err := fn()
	p.res.phases[name] += cpuNow() - c0
	p.tr.end(id)
	return err
}

// maxChunks bounds a measured window, in case a workload never finishes.
const maxChunks = 100000

// runRep builds the workload once and runs it: set-up, measured window,
// score. tr is nil for an untraced repetition.
func runRep(cfg *config, shards int, tr *tracer) (*repResult, error) {
	res := &repResult{shards: shards, phases: map[string]time.Duration{}}
	root := tr.begin("rep")
	defer tr.end(root)
	inst := cfg.workload.build(cfg, shards)
	ph := &phaser{tr: tr, res: res}

	c0 := cpuNow()
	if err := inst.setup(ph); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Collect the set-up garbage now, so the measured window starts from a
	// clean heap.
	_ = ph.do("gc", func() error { runtime.GC(); return nil })
	res.setup = cpuNow() - c0

	v := inst.view()
	before := v.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	tr.startProfile()
	f0, _ := v.frames()
	w0, c1 := time.Now(), cpuNow()
	for i := 0; ; i++ {
		if i == maxChunks {
			return nil, fmt.Errorf("measured window did not end after %d chunks", i)
		}
		id := tr.begin("measure.chunk")
		done, err := inst.step()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("measured chunk %d: %w", i, err)
		}
		if v.checkNB {
			res.liveBufs = append(res.liveBufs, netbuf.Live())
		}
		if tr != nil {
			res.queue = append(res.queue, sumSeries(v.regs, "bridge_queue_bytes"))
		}
		if done {
			break
		}
	}
	res.cpu, res.wall = cpuNow()-c1, time.Since(w0)
	f1, _ := v.frames()
	res.frames = f1 - f0
	tr.stopProfile()
	res.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	res.allocs = ms1.Mallocs - ms0.Mallocs
	after := v.counters()
	res.delta = map[string]float64{}
	for k, a := range after {
		res.delta[k] = a - before[k]
	}
	if res.frames <= 0 {
		return nil, fmt.Errorf("no frames carried in the measured window")
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.heapMB = float64(ms1.HeapAlloc) / (1 << 20)

	id := tr.begin("score")
	err := inst.score(&res.out)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("score: %w", err)
	}
	res.print = fingerprint(v, &res.out)
	// Keep only the summaries, so that a later repetition's heap sample
	// holds none of this repetition's latency arrays.
	o := &res.out
	res.lat, res.crash, res.stall = summarize(o.lat), summarize(o.crashLat), summarize(o.stalls)
	o.lat, o.crashLat, o.stalls = nil, nil, nil
	return res, nil
}

func sumSeries(regs []*obs.Registry, base string) float64 {
	var s float64
	for _, reg := range regs {
		for _, name := range reg.Names() {
			if b, _, _ := strings.Cut(name, "{"); b == base {
				v, _ := reg.Lookup(name)
				s += float64(v)
			}
		}
	}
	return s
}

// fingerprint hashes everything a simulator-only change must leave
// byte-identical: frames, events, per-stream execution digests, span
// digests and the scored outcome.
func fingerprint(v *simView, o *outcome) uint64 {
	h := fnv.New64a()
	put := func(x int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	f, b := v.frames()
	put(f)
	put(b)
	put(v.events())
	for _, d := range v.digests() {
		put(int64(d.ID))
		put(d.Executed)
		put(int64(d.Digest))
	}
	digests := make([]uint64, 0, len(v.spans))
	for _, r := range v.spans {
		digests = append(digests, r.Digest())
	}
	put(int64(obs.MergeSpanDigests(digests)))
	put(o.attempted)
	put(o.failed)
	put(o.bytes)
	put(int64(o.window))
	for _, ds := range [][]time.Duration{o.lat, o.crashLat, o.stalls, o.detect, o.takeover} {
		put(int64(len(ds)))
		for _, d := range ds {
			put(int64(d))
		}
	}
	return h.Sum64()
}

// maxReps bounds the repetitions of one run.
const maxReps = 40

// repeat runs repetitions until at least minReps have run and their
// measured windows add up to budget of wall time.
func repeat(cfg *config, shards, minReps int, budget time.Duration, tr *tracer) ([]*repResult, error) {
	var reps []*repResult
	var spent time.Duration
	for len(reps) < minReps || (spent < budget && len(reps) < maxReps) {
		tr.nextRun()
		r, err := runRep(cfg, shards, tr)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(reps), err)
		}
		reps = append(reps, r)
		spent += r.wall
	}
	return reps, nil
}

// execute runs the workload as configured and builds the report.
func execute(cfg *config) (*report, error) {
	w := cfg.workload
	shards := 1
	if w.sharded {
		shards = min(2, runtime.NumCPU())
	}
	rep := &report{info: provenance(cfg, shards)}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minReps := 3
	if cfg.trace {
		budget /= 2
		minReps = 2
	}
	plain, err := repeat(cfg, shards, minReps, budget, nil)
	if err != nil {
		return nil, err
	}
	all := append([]*repResult(nil), plain...)
	if w.sharded {
		// One more repetition on the other shard count: the simulated
		// outcome must not depend on the partition.
		other := 1
		if shards == 1 {
			other = 2
		}
		r, err := runRep(cfg, other, nil)
		if err != nil {
			return nil, fmt.Errorf("shards=%d check: %w", other, err)
		}
		all = append(all, r)
	}
	var traced []*repResult
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if traced, err = repeat(cfg, shards, 2, budget, tr); err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		all = append(all, traced...)
	}

	gate(rep, all)
	first := &plain[0].out
	rep.Attempted, rep.Failed = first.attempted*int64(len(plain)), first.failed*int64(len(plain))
	rep.info = append(rep.info, fmt.Sprintf("repetitions %d (shards=%d) + %d more (shard check, traced); fingerprint %016x; requests %d, stalled connections %d",
		len(plain), shards, len(all)-len(plain), plain[0].print, plain[0].lat.n, plain[0].stall.n),
		fmt.Sprintf("host_cpu_ns_per_frame by repetition: %.0f", each(plain, (*repResult).nsPerFrame)))

	e2e, diag := endToEnd(plain), diagnostics(plain)
	rep.Metrics, rep.extra = e2e, diag
	if cfg.trace {
		if rep.Metrics, err = perLayer(cfg, plain, traced, tr, diag); err != nil {
			return nil, err
		}
		for k, m := range e2e {
			rep.extra[k] = m
		}
	}
	rep.Correct = len(rep.problems) == 0
	return rep, nil
}

// gate applies the correctness checks: every repetition's own checks, equal
// fingerprints across repetitions (and shard counts and tracing), and no
// netbuf growth across the measured chunks.
func gate(rep *report, all []*repResult) {
	for i, r := range all {
		for _, p := range r.out.problems {
			rep.problems = append(rep.problems, fmt.Sprintf("repetition %d: %s", i, p))
		}
		if r.print != all[0].print {
			rep.problems = append(rep.problems, fmt.Sprintf(
				"repetition %d (shards=%d): fingerprint %016x differs from repetition 0 (shards=%d): %016x",
				i, r.shards, r.print, all[0].shards, all[0].print))
		}
		if err := checkNoGrowth(r.liveBufs); err != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("repetition %d: %v", i, err))
		}
	}
}

// checkNoGrowth fails when the live netbuf count at the chunk ends of the
// second half of the window rises above the first half's peak: buffers
// held by frames in flight come and go, a leak only grows.
func checkNoGrowth(live []int64) error {
	if len(live) < 4 {
		return nil
	}
	half := len(live) / 2
	var peak int64
	for _, n := range live[:half] {
		peak = max(peak, n)
	}
	for i, n := range live[half:] {
		if n > peak+peak/100+16 {
			return fmt.Errorf("netbuf.Live() grew from a peak of %d to %d by chunk %d", peak, n, half+i)
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of the durations, in ms.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / float64(time.Millisecond)
}

func each(reps []*repResult, f func(r *repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEnd computes the end-to-end metrics from the untraced repetitions:
// host figures as medians across repetitions, simulated outcomes from the
// first (all repetitions agree, or the gate fails).
func endToEnd(reps []*repResult) map[string]metric {
	o, lat := &reps[0].out, reps[0].lat
	return map[string]metric{
		"host_cpu_ns_per_frame": {median(each(reps, (*repResult).nsPerFrame)), "ns"},
		"setup_s":               {median(each(reps, func(r *repResult) float64 { return r.setup.Seconds() })), "s"},
		"live_heap_mb":          {median(each(reps, func(r *repResult) float64 { return r.heapMB })), "MB"},
		"goodput_kbps":          {float64(o.bytes) / 1024 / o.window.Seconds(), "KB/s"},
		"req_p50_ms":            {lat.p50, "ms"},
		"req_p99_ms":            {lat.p99, "ms"},
	}
}

// diagnostics are printed beside the metrics: figures that flag a run
// disturbed by other tenants, and the outcomes a workload has only
// sometimes.
func diagnostics(reps []*repResult) map[string]metric {
	r := reps[0]
	o := &r.out
	d := map[string]metric{
		"run.wall_ns_per_frame": {median(each(reps, func(r *repResult) float64 {
			return float64(r.wall.Nanoseconds()) / float64(r.frames)
		})), "ns"},
		"run.cpu_per_wall": {median(each(reps, func(r *repResult) float64 {
			return r.cpu.Seconds() / r.wall.Seconds()
		})), "ratio"},
		"failed_ratio": {float64(o.failed) / float64(max(o.attempted, 1)), "ratio"},
		"req_samples":  {float64(r.lat.n), "count"},
		"req_max_ms":   {r.lat.max, "ms"},
	}
	if r.stall.n > 0 {
		d["stall_p50_ms"] = metric{r.stall.p50, "ms"}
		d["stall_p90_ms"] = metric{r.stall.p90, "ms"}
		d["stall_samples"] = metric{float64(r.stall.n), "count"}
	}
	if len(o.detect) > 0 {
		d["crash_req_samples"] = metric{float64(r.crash.n), "count"}
		d["crash_req_p50_ms"] = metric{r.crash.p50, "ms"}
		d["crash_req_max_ms"] = metric{r.crash.max, "ms"}
	}
	return d
}
