package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"tcpfailover/internal/core"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// --- E13: memory footprint and GC cost at scale ------------------------------
//
// E8 and E10 measure per-segment CPU cost as the connection count grows; E13
// measures what the connection *state* costs the runtime. Two layouts are
// populated to the same connection count and measured identically:
//
//   - "map": a faithful model of the containers the repository used before
//     the flowtab conversion — a map entry pointing at a heap-allocated
//     per-connection record which itself owns two heap-allocated output
//     queues on the primary, plus a heap flow record and a re-key tuple
//     entry on the secondary. The model really allocates that layout and
//     the garbage collector really traces it; nothing is simulated.
//   - "flowtab": the real bridges as they are now — a PrimaryBridge and a
//     SecondaryBridge driven through their interposition hooks until n
//     connections are established, with all per-connection state living in
//     open-addressing tables over slab arenas.
//
// For each cell the experiment reports live heap objects and bytes
// attributable to the population (after a settling collection), the wall
// time and stop-the-world pause of one forced collection at full
// population — the GC scan cost the layout imposes on a running process —
// and, for the real bridges, a drive phase: steady-state client ACKs pushed
// through the primary's demultiplex-and-translate path, reported as
// ns/segment and allocs/segment. The CI gate asserts the map layout holds
// at least twice as many GC-scanned objects per connection as flowtab.

// DefaultMemScale is the connection-count sweep for experiment E13.
var DefaultMemScale = []int{100_000, 500_000, 1_000_000}

// MemScalePoint reports one (layout, connection count) cell of E13. All
// fields are host-dependent performance counters (like ConnScalePoint).
type MemScalePoint struct {
	Conns  int    `json:"conns"`
	Layout string `json:"layout"` // "map" (pre-conversion model) or "flowtab" (real bridges)

	LiveObjects    int64   `json:"live_objects"` // heap objects added by the population
	LiveBytes      int64   `json:"live_bytes"`   // heap bytes added by the population
	ObjectsPerConn float64 `json:"objects_per_conn"`
	BytesPerConn   float64 `json:"bytes_per_conn"`

	PopulateNS int64 `json:"populate_ns"`
	ForcedGCNS int64 `json:"forced_gc_ns"` // wall time of one collection at full population
	GCPauseNS  int64 `json:"gc_pause_ns"`  // stop-the-world pause of that collection

	// Drive phase (flowtab cells only): client ACKs through the primary
	// bridge's lookup-and-translate path, round-robin over all connections.
	DriveSegments         int64   `json:"drive_segments,omitempty"`
	DriveNsPerSegment     float64 `json:"drive_ns_per_segment,omitempty"`
	DriveAllocsPerSegment float64 `json:"drive_allocs_per_segment,omitempty"`
}

// MemScale runs E13 for each connection count. Like ConnScale, the cells run
// sequentially on the calling goroutine: heap and wall-clock measurements of
// the process itself need an otherwise quiet process.
func MemScale(counts []int) ([]MemScalePoint, error) {
	if len(counts) == 0 {
		counts = DefaultMemScale
	}
	out := make([]MemScalePoint, 0, 2*len(counts))
	for _, n := range counts {
		p, err := memScaleMapCell(n)
		if err != nil {
			return nil, fmt.Errorf("memscale map %d conns: %w", n, err)
		}
		out = append(out, p)
		p, err = memScaleFlowtabCell(n)
		if err != nil {
			return nil, fmt.Errorf("memscale flowtab %d conns: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// msSettle returns the process to a quiet, collected state and samples it.
func msSettle(ms *runtime.MemStats) {
	debug.FreeOSMemory()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// msFinish fills the measurement fields common to both layouts: the live
// heap delta against the pre-population sample, and the cost of one forced
// collection at full population.
func msFinish(p *MemScalePoint, ms0 *runtime.MemStats) {
	var ms1 runtime.MemStats
	runtime.GC() // settle: free the population phase's transient garbage
	runtime.ReadMemStats(&ms1)
	p.LiveObjects = int64(ms1.HeapObjects) - int64(ms0.HeapObjects)
	p.LiveBytes = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)
	p.ObjectsPerConn = float64(p.LiveObjects) / float64(p.Conns)
	p.BytesPerConn = float64(p.LiveBytes) / float64(p.Conns)
	pause0 := ms1.PauseTotalNs
	start := time.Now()
	runtime.GC()
	p.ForcedGCNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	p.GCPauseNS = int64(ms1.PauseTotalNs - pause0)
}

// --- the "map" baseline: the seed's per-connection layout --------------------

// msQueueModel mirrors the seed's heap-allocated byteQueue: three slice
// headers and two scalars.
type msQueueModel struct {
	floor   uint32
	bytes   int
	blocks  []byte
	scratch []byte
	spare   []byte
}

// msPconnModel mirrors the seed's *pconn: a heap record owning two heap
// queues, LRU pointers, and the sequence/acknowledgment scalar block.
type msPconnModel struct {
	key              uint64
	pq, sq           *msQueueModel
	lruPrev, lruNext *msPconnModel
	scalars          [18]uint32
}

// msSflowModel mirrors the seed's *sflow.
type msSflowModel struct {
	gen              uint64
	match            bool
	opt              [8]byte
	key              uint64
	lruPrev, lruNext *msSflowModel
}

// msTupleModel mirrors the tcp.Tuple the seed's secondary kept per
// connection in a second map.
type msTupleModel struct {
	localAddr, remoteAddr uint32
	localPort, remotePort uint16
}

// memScaleMapCell populates the pre-conversion layout to n connections.
func memScaleMapCell(n int) (MemScalePoint, error) {
	p := MemScalePoint{Conns: n, Layout: "map"}
	var ms0 runtime.MemStats
	msSettle(&ms0)
	start := time.Now()
	pconns := make(map[uint64]*msPconnModel)
	flows := make(map[uint64]*msSflowModel)
	rekey := make(map[uint64]msTupleModel)
	for i := 0; i < n; i++ {
		key := uint64(0x0B00_0000+i)<<32 | uint64(49152)<<16 | uint64(benchPort)
		pconns[key] = &msPconnModel{key: key, pq: &msQueueModel{}, sq: &msQueueModel{}}
		flows[key] = &msSflowModel{key: key, match: true}
		rekey[key] = msTupleModel{remoteAddr: uint32(key >> 32), localPort: benchPort, remotePort: 49152}
	}
	p.PopulateNS = time.Since(start).Nanoseconds()
	msFinish(&p, &ms0)
	runtime.KeepAlive(pconns)
	runtime.KeepAlive(flows)
	runtime.KeepAlive(rekey)
	return p, nil
}

// --- the "flowtab" cell: the real bridges ------------------------------------

// msFixture is a pair of bridge hosts driven directly through their hooks —
// no TCP stacks and no wire, so what the cell measures is bridge state, not
// endpoint buffers.
type msFixture struct {
	pri *core.PrimaryBridge
	sec *core.SecondaryBridge
	aP  ipv4.Addr
	aS  ipv4.Addr
}

const msClientBase = 0x0B00_0000 // 11.0.0.0: the synthetic client address block

func newMsFixture() *msFixture {
	f := &msFixture{
		aP: ipv4.MustParseAddr("10.0.1.1"),
		aS: ipv4.MustParseAddr("10.0.1.2"),
	}
	sched := sim.New(1)
	lan := ethernet.NewSegment(sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)

	priHost := netstack.NewHost(sched, "p", netstack.DefaultProfile())
	priHost.AttachIface(lan, ethernet.MAC{2, 0, 0, 0, 0, 1}, f.aP, prefix)
	priSel := core.NewSelector()
	priSel.EnableServerPort(benchPort)
	f.pri = core.NewPrimaryBridge(priHost, f.aP, f.aS, priSel, core.PrimaryConfig{})
	// Emitted client-bound segments (the combined SYNs) go nowhere.
	f.pri.SetEmitFunc(func(_ ipv4.Addr, pkt *netbuf.Buffer) { pkt.Release() })

	secHost := netstack.NewHost(sched, "s", netstack.DefaultProfile())
	secHost.AttachIface(lan, ethernet.MAC{2, 0, 0, 0, 0, 2}, f.aS, prefix)
	secSel := core.NewSelector()
	secSel.EnableServerPort(benchPort)
	f.sec = core.NewSecondaryBridge(secHost, 0, f.aP, f.aS, secSel)
	return f
}

// establish walks connection i (distinct client address, fixed ports)
// through the three segments that take the primary's record to the
// established state, and snoops the client SYN on the secondary.
func (f *msFixture) establish(i int) error {
	aC := ipv4.Addr(msClientBase + uint32(i))
	hdrToP := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: aC, Dst: f.aP}

	// Client SYN, seen by both bridges.
	syn := tcp.Marshal(aC, f.aP, &tcp.Segment{
		SrcPort: 49152, DstPort: benchPort, Seq: 1000, Flags: tcp.FlagSYN,
		Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	if v, _, _ := f.pri.Inbound(0, hdrToP, syn); v != netstack.VerdictPass {
		return fmt.Errorf("conn %d: client SYN verdict %v", i, v)
	}
	snoop := tcp.Marshal(aC, f.aP, &tcp.Segment{
		SrcPort: 49152, DstPort: benchPort, Seq: 1000, Flags: tcp.FlagSYN,
		Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	if v, _, _ := f.sec.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: aC, Dst: f.aP}, snoop); v != netstack.VerdictDeliver {
		return fmt.Errorf("conn %d: snooped SYN verdict %v", i, v)
	}

	// The primary TCP layer's SYN-ACK, held by the bridge.
	synAckP := tcp.Marshal(f.aP, aC, &tcp.Segment{
		SrcPort: benchPort, DstPort: 49152, Seq: 50_000_000, Ack: 1001,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 60000,
		Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	if !f.pri.Outbound(f.aP, aC, synAckP) {
		return fmt.Errorf("conn %d: primary SYN-ACK not consumed", i)
	}

	// The secondary's SYN-ACK, diverted to the primary with the orig-dst
	// option; completes establishment and emits the combined SYN.
	synAckS := tcp.Marshal(f.aS, aC, &tcp.Segment{
		SrcPort: benchPort, DstPort: 49152, Seq: 90_000_000, Ack: 1001,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 60000,
		Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	div, err := tcp.InsertOrigDstOption(synAckS, aC)
	if err != nil {
		return err
	}
	tcp.PatchPseudoAddr(div, aC, f.aP)
	if v, _, _ := f.pri.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aS, Dst: f.aP}, div); v != netstack.VerdictDrop {
		return fmt.Errorf("conn %d: diverted SYN-ACK verdict %v", i, v)
	}
	return nil
}

// memScaleDriveFloor keeps small cells' timing out of the noise floor; large
// cells cap at three full sweeps over the connection set.
const (
	memScaleDriveFloor = 100_000
	memScaleDriveCap   = 3_000_000
)

// memScaleFlowtabCell populates the real bridges to n connections.
func memScaleFlowtabCell(n int) (MemScalePoint, error) {
	p := MemScalePoint{Conns: n, Layout: "flowtab"}
	var ms0 runtime.MemStats
	msSettle(&ms0)
	start := time.Now()
	f := newMsFixture()
	for i := 0; i < n; i++ {
		if err := f.establish(i); err != nil {
			return p, err
		}
	}
	p.PopulateNS = time.Since(start).Nanoseconds()
	if got := f.pri.Conns(); got != n {
		return p, fmt.Errorf("primary tracks %d conns, want %d", got, n)
	}
	if got := f.sec.Flows(); got != n {
		return p, fmt.Errorf("secondary caches %d flows, want %d", got, n)
	}
	msFinish(&p, &ms0)

	// Drive phase: steady-state client ACKs round-robin over every
	// connection — a pure demultiplex-and-translate workload. The frame is
	// prebuilt once; the bridge patches the acknowledgment in place, so it
	// is re-set each iteration. The client path verifies no checksum (the
	// endpoint stack does), so the patched frame needs no reseal.
	segs := min(max(memScaleDriveFloor, 3*n), memScaleDriveCap)
	frame := tcp.Marshal(ipv4.Addr(msClientBase), f.aP, &tcp.Segment{
		SrcPort: 49152, DstPort: benchPort, Seq: 1001, Ack: 90_000_500,
		Flags: tcp.FlagACK, Window: 65535,
	})
	hdr := ipv4.Header{Protocol: ipv4.ProtoTCP, Dst: f.aP}
	var msA, msB runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msA)
	dStart := time.Now()
	for s, i := 0, 0; s < segs; s++ {
		hdr.Src = ipv4.Addr(msClientBase + uint32(i))
		tcp.SetRawAck(frame, 90_000_500)
		if v, _, _ := f.pri.Inbound(0, hdr, frame); v != netstack.VerdictPass {
			return p, fmt.Errorf("drive segment %d: verdict %v", s, v)
		}
		if i++; i == n {
			i = 0
		}
	}
	dWall := time.Since(dStart)
	runtime.ReadMemStats(&msB)
	p.DriveSegments = int64(segs)
	p.DriveNsPerSegment = float64(dWall.Nanoseconds()) / float64(segs)
	p.DriveAllocsPerSegment = float64(msB.Mallocs-msA.Mallocs) / float64(segs)
	runtime.KeepAlive(f)
	return p, nil
}

func printMemScale(w io.Writer, _ Config, r *Results) {
	points := r.MemScale
	fmt.Fprintln(w, "=== E13: memory layout at scale (map vs flowtab bridges) ===")
	fmt.Fprintln(w, "(N established failover connections held live on real bridges;")
	fmt.Fprintln(w, " \"map\" allocates the pointer-per-connection layout the bridges")
	fmt.Fprintln(w, " used before the flow-table rewrite, \"flowtab\" populates the")
	fmt.Fprintln(w, " open-addressing tables and slab arenas; live objects/bytes are")
	fmt.Fprintln(w, " runtime.GC deltas, forced-GC wall time shows the scan cost,")
	fmt.Fprintln(w, " and the drive phase pushes client ACKs through the hot path)")
	fmt.Fprintf(w, "%9s %8s %12s %12s %9s %8s %11s %12s %12s\n",
		"conns", "layout", "objects", "obj/conn", "bytes/c", "GC [ms]", "pause [us]", "ns/segment", "allocs/seg")
	for i, p := range points {
		if i > 0 && p.Conns != points[i-1].Conns {
			fmt.Fprintln(w)
		}
		drive := "-"
		allocs := "-"
		if p.DriveSegments > 0 {
			drive = fmt.Sprintf("%.0f", p.DriveNsPerSegment)
			allocs = fmt.Sprintf("%.5f", p.DriveAllocsPerSegment)
		}
		fmt.Fprintf(w, "%9d %8s %12d %12.4f %9.0f %8.2f %11.0f %12s %12s\n",
			p.Conns, p.Layout, p.LiveObjects, p.ObjectsPerConn, p.BytesPerConn,
			float64(p.ForcedGCNS)/1e6, float64(p.GCPauseNS)/1e3, drive, allocs)
	}
	fmt.Fprintln(w)
}
