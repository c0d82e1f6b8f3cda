package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// A traced run records three things, all kept in memory and written out at
// the end: spans around the benchmark's own calls into the simulator, a CPU
// profile of every measured window charged to the simulator's packages (the
// ledger), and the simulator's counters.

// traceSpan is one timed call: build, install, start, dial, warm-up, a
// measured chunk, scoring. Times are wall-clock nanoseconds since the
// tracer started; Run numbers the repetition.
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	t0       time.Time
	run      int
	spans    []traceSpan
	open     []int
	profiles [][]byte
	prof     *bytes.Buffer
}

// profileHz is the CPU profile sampling rate: five times the runtime's
// default, so that a few seconds of measured window give a ledger with
// thousands of samples.
const profileHz = 500

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// The tracer's methods do nothing on a nil tracer: an untraced run pays one
// nil check per call.

func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, traceSpan{ID: id, Parent: parent, Run: t.run, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(), EndNS: -1})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	for n := len(t.open); n > 0 && t.open[n-1] != id; n-- {
		t.open = t.open[:n-1] // close children left open by an error path
	}
	t.open = t.open[:max(0, len(t.open)-1)]
}

func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	t.prof = new(bytes.Buffer)
	// StartCPUProfile then notes on stderr that the rate was already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(t.prof); err != nil {
		panic(err) // only fails if a profile is already running
	}
}

func (t *tracer) stopProfile() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, t.prof.Bytes())
}

// Ledger buckets. A profile sample is charged to the package of its
// innermost frame inside this module; runtime frames (map access, memmove,
// allocation) thereby go to their nearest caller in the module. Samples
// with no module frame go to runtime.gc when a garbage-collector worker ran
// them, to runtime.sched when only the goroutine scheduler is on the stack,
// and to other otherwise.
var ledgerBuckets = []string{
	"sim", "netstack", "flowtab", "tcp", "checksum", "ipv4", "ethernet", "netbuf", "arp",
	"core", "replica", "detect", "fault", "apps", "loadgen", "obs", "metrics",
	"scenario", "perfbench", "runtime.gc", "runtime.sched", "other",
}

// bucketMetric names a bucket's per-layer metric.
func bucketMetric(b string) string {
	if r, ok := strings.CutPrefix(b, "runtime."); ok {
		return "runtime." + r + "_ns_per_frame"
	}
	return b + ".ns_per_frame"
}

// charge returns the ledger bucket of one sample; frames run innermost
// first.
func charge(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "tcpfailover/internal/"):
			pkg := strings.TrimPrefix(f, "tcpfailover/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, b := range ledgerBuckets {
				if b == pkg {
					return b
				}
			}
			return "other"
		case strings.HasPrefix(f, "tcpfailover."):
			return "scenario"
		case strings.HasPrefix(f, "main."):
			return "perfbench"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC",
			"runtime.gcMarkDone", "runtime.gcStart", "runtime.forEachP":
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.schedule", "runtime.findRunnable", "runtime.mstart", "runtime.park_m",
			"runtime.goexit0", "runtime.sysmon", "runtime.mcall", "runtime.stopm", "runtime.notesleep":
			return "runtime.sched"
		}
	}
	return "other"
}

// ledger is the CPU split of the traced measured windows.
type ledger struct {
	samples int64
	weight  map[string]int64 // CPU nanoseconds per bucket
	total   int64
}

func (l *ledger) share(b string) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.weight[b]) / float64(l.total)
}

// buildLedger decodes the recorded profiles and charges every sample.
func buildLedger(profiles [][]byte) (*ledger, error) {
	l := &ledger{weight: map[string]int64{}}
	for _, raw := range profiles {
		p, err := decodeProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			frames := make([]string, 0, 16)
			for _, loc := range s.locs {
				frames = append(frames, p.locs[loc]...)
			}
			w := s.value
			l.weight[charge(frames)] += w
			l.total += w
			l.samples += s.count
		}
	}
	return l, nil
}

// A minimal decoder for the gzipped protocol buffer that runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto): only the fields
// the ledger needs.

type profSample struct {
	locs  []uint64
	count int64
	value int64 // CPU nanoseconds
}

type profile struct {
	samples []profSample
	locs    map[uint64][]string // location id -> function names, innermost first
}

var errProto = errors.New("malformed profile")

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for s := uint(0); s < 64; s += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << s
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errProto
}

// field reads the next field: its number, wire type, varint value, and the
// bytes of a length-delimited value.
func (r *pbReader) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, data, err
}

// ints reads a repeated integer field, packed or not.
func ints(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	r := &pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcs := map[uint64]int64{}       // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	p := &profile{locs: map[uint64][]string{}}
	r := &pbReader{b}
	for len(r.b) > 0 {
		num, _, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample: location ids, then the values (count, nanoseconds)
			var s profSample
			var vals []uint64
			sr := &pbReader{data}
			for len(sr.b) > 0 {
				n, w, v, d, err := sr.field()
				if err != nil {
					return nil, err
				}
				xs, err := ints(w, v, d)
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs = append(s.locs, xs...)
				case 2:
					vals = append(vals, xs...)
				}
			}
			if len(vals) < 2 {
				return nil, errProto
			}
			s.count, s.value = int64(vals[0]), int64(vals[1])
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := &pbReader{data}
			for len(lr.b) > 0 {
				n, _, v, d, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					ln := &pbReader{d}
					for len(ln.b) > 0 {
						m, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							fns = append(fns, fv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			fr := &pbReader{data}
			for len(fr.b) > 0 {
				n, _, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
	}
	for id, fns := range locFuncs {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locs[id] = names
	}
	return p, nil
}

// perLayer computes the per-layer metrics of a traced run and writes the
// spans, the ledger and the counters under cfg.out.
func perLayer(cfg *config, plain, traced []*repResult, tr *tracer, diag map[string]metric) (map[string]metric, error) {
	led, err := buildLedger(tr.profiles)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if led.total == 0 {
		return nil, errors.New("ledger: the CPU profile holds no samples")
	}
	nsTraced := median(each(traced, (*repResult).nsPerFrame))
	nsPlain := median(each(plain, (*repResult).nsPerFrame))
	r := traced[0]
	d := r.delta
	o := &r.out
	frames := float64(r.frames)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{}
	for _, b := range ledgerBuckets {
		m[bucketMetric(b)] = metric{led.share(b) * nsTraced, "ns"}
	}
	checksumNs := led.share("checksum") * nsTraced * frames
	phase := func(name string) float64 {
		return median(each(plain, func(r *repResult) float64 { return r.phases[name].Seconds() }))
	}
	for k, v := range map[string]metric{
		"sim.events_per_frame":          {ratio(d["events"], frames), "events/frame"},
		"sim.timer_arms_per_frame":      {ratio(d["sim_timer_wheel_arms_total"]+d["sim_timer_heap_arms_total"], frames), "arms/frame"},
		"sim.windows":                   {d["windows"], "count"},
		"sim.cross_posts":               {d["cross_posts"], "count"},
		"netstack.napi_batch_mean":      {ratio(d["net_napi_batch_frames.sum"], d["net_napi_batch_frames.count"]), "frames"},
		"checksum.ns_per_kb":            {ratio(checksumNs, d["link_bytes"]/1024), "ns/KB"},
		"core.bytes_matched":            {d["bridge_bytes_matched_total"], "bytes"},
		"core.release_ratio":            {ratio(d["bridge_bytes_released_total"], d["bridge_bytes_matched_total"]), "ratio"},
		"core.drops":                    {d["bridge_bad_checksum_drops_total"] + d["bridge_seq_invalid_drops_total"] + d["bridge_malformed_drops_total"], "count"},
		"core.queue_bytes_p99":          {quantile(r.queue, 0.99), "bytes"},
		"obs.spans":                     {float64(o.spans), "count"},
		"obs.stall_p50_ms":              {r.stall.p50, "ms"},
		"obs.stall_p90_ms":              {r.stall.p90, "ms"},
		"obs.stalled_conns":             {float64(r.stall.n), "count"},
		"crash.req_count":               {float64(r.crash.n), "count"},
		"crash.req_p50_ms":              {r.crash.p50, "ms"},
		"crash.req_max_ms":              {r.crash.max, "ms"},
		"detect.detection_ms":           {msMedian(o.detect), "ms"},
		"replica.takeover_ms":           {msMedian(o.takeover), "ms"},
		"tcp.retransmits_per_kseg":      {1000 * ratio(d["tcp_retransmissions_total"], d["tcp_segments_out_total"]), "count/kseg"},
		"tcp.zero_window_stalls":        {d["tcp_zero_window_stalls_total"], "count"},
		"ethernet.collisions_per_frame": {ratio(d["collisions"], frames), "count/frame"},
		"runtime.allocs_per_frame":      {median(each(traced, func(r *repResult) float64 { return float64(r.allocs) / float64(r.frames) })), "allocs/frame"},
		"runtime.gc_pct":                {100 * median(each(traced, func(r *repResult) float64 { return r.gcCPU / r.cpu.Seconds() })), "%"},
		"setup.build_s":                 {phase("build") + phase("install") + phase("start"), "s"},
		"setup.dial_s":                  {phase("dial"), "s"},
		"setup.warmup_s":                {phase("warmup") + phase("gc"), "s"},
		"run.wall_ns_per_frame":         diag["run.wall_ns_per_frame"],
		"run.cpu_per_wall":              diag["run.cpu_per_wall"],
		"trace.overhead_pct":            {100 * (nsTraced/nsPlain - 1), "%"},
		"ledger.other_pct":              {100 * led.share("other"), "%"},
		"ledger.samples":                {float64(led.samples), "count"},
	} {
		m[k] = v
	}
	if err := writeTrace(cfg, tr, led, nsTraced, traced); err != nil {
		return nil, err
	}
	return m, nil
}

func msMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// quantile is the nearest-rank quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q*float64(len(s)) + 0.999999)
	return s[max(0, min(k, len(s))-1)]
}

// writeTrace writes spans.json, ledger.json and counters.json into
// <out>/<workload>-seed<seed>/.
func writeTrace(cfg *config, tr *tracer, led *ledger, nsTraced float64, traced []*repResult) error {
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload.name, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type bucket struct {
		Name       string  `json:"name"`
		SharePct   float64 `json:"share_pct"`
		NsPerFrame float64 `json:"ns_per_frame"`
	}
	var bs []bucket
	for _, b := range ledgerBuckets {
		bs = append(bs, bucket{b, 100 * led.share(b), led.share(b) * nsTraced})
	}
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].SharePct > bs[j].SharePct })
	prov := provenance(cfg, traced[0].shards)
	files := map[string]any{
		"spans.json": tr.spans,
		"ledger.json": map[string]any{
			"provenance": prov, "samples": led.samples, "cpu_ns_per_frame": nsTraced, "buckets": bs,
		},
		"counters.json": map[string]any{
			"provenance": prov, "measured_window_deltas": traced[0].delta,
		},
	}
	for name, v := range files {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
