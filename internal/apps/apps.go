// Package apps provides the deterministic server applications and client
// workload generators used by the examples and the benchmark harness: an
// echo server, bulk stream sources and sinks, a request/reply server, a
// simplified FTP server and client (the paper's real-world application),
// the online store from the paper's introduction, and a key-value back end
// for server-initiated connections.
//
// All applications are written against the event-driven socket API of
// internal/tcp and are deterministic on a per-connection basis, the
// property the paper's active replication requires: when a client connects
// and issues a request, both replicas produce byte-identical replies.
package apps

import "tcpfailover/internal/tcp"

// copyBufSize is the scratch-buffer size used by the pump loops.
const copyBufSize = 32 * 1024

// The deterministic test pattern is byte(x*131 + (x>>8)*31 + (x>>16)*7) at
// stream offset x. Within a 256-byte-aligned block the high term
// k = byte((x>>8)*31 + (x>>16)*7) is constant, and because 131 is odd the
// byte equals byte(131*(x+d)) with d = k*131⁻¹ mod 256 (131⁻¹ = 43). Every
// block is therefore one contiguous slice of patternTable, so generating a
// block is one copy and verifying it is one compare.

// patternTable holds byte(131*j) for j in [0, 512): doubled, so a block
// starting at any rotation d < 256 is patternTable[d : d+256].
var patternTable = func() (t [512]byte) {
	for j := range t {
		t[j] = byte(131 * j)
	}
	return t
}()

// patternBlock returns the table slice holding the pattern from offset x to
// the end of x's 256-byte block.
func patternBlock(x int64) []byte {
	k := byte((x>>8)*31 + (x>>16)*7)
	d := int(k*43) + int(x&0xff)
	return patternTable[d : d+256-int(x&0xff)]
}

// Pattern fills p with a deterministic byte pattern seeded by off; both
// replicas generate identical streams, and receivers can verify integrity.
func Pattern(p []byte, off int64) {
	for len(p) > 0 {
		n := copy(p, patternBlock(off))
		p = p[n:]
		off += int64(n)
	}
}

// VerifyPattern checks that p matches the deterministic pattern at off,
// returning the index of the first mismatch or -1.
func VerifyPattern(p []byte, off int64) int {
	for i := 0; i < len(p); {
		blk := patternBlock(off + int64(i))
		seg := p[i:min(len(p), i+len(blk))]
		if string(seg) != string(blk[:len(seg)]) {
			for j := range seg {
				if seg[j] != blk[j] {
					return i + j
				}
			}
		}
		i += len(seg)
	}
	return -1
}

// patternBuf is a pump's send buffer that remembers which stretch of the
// pattern it holds, so a pump whose Write accepted only part of the last
// slice regenerates just the bytes it has not generated before. Invariant:
// buf[:n] == Pattern at off. get returns exactly what Pattern would, so the
// stack sees the same Write calls as with a fresh fill.
type patternBuf struct {
	buf []byte
	off int64
	n   int
}

func newPatternBuf() patternBuf { return patternBuf{buf: make([]byte, copyBufSize)} }

// get returns the pattern over [off, off+n), n <= len(buf), as a prefix of
// buf. Held bytes at or after off are shifted down and kept; the rest is
// filled.
func (pb *patternBuf) get(off int64, n int) []byte {
	keep := 0
	switch d := off - pb.off; {
	case d == 0:
		keep = min(n, pb.n)
	case d > 0 && d < int64(pb.n):
		keep = copy(pb.buf[:n], pb.buf[d:pb.n])
	}
	if keep < n {
		Pattern(pb.buf[keep:n], off+int64(keep))
	}
	pb.off, pb.n = off, n
	return pb.buf[:n]
}

// invalidate records that buf was overwritten by something else (a Read
// into the same buffer).
func (pb *patternBuf) invalidate() { pb.n = 0 }

// drainAndEcho is the shared pump used by the echo server.
type echoConn struct {
	c       *tcp.Conn
	pending []byte
	sawEOF  bool
	buf     []byte
}

func (e *echoConn) pump() {
	for {
		// Flush pending bytes first so reads don't overrun the send buffer.
		for len(e.pending) > 0 {
			n, err := e.c.Write(e.pending)
			if err != nil {
				return
			}
			if n == 0 {
				return // wait for OnWritable
			}
			e.pending = e.pending[n:]
		}
		if e.sawEOF {
			e.c.Close()
			return
		}
		n, err := e.c.Read(e.buf)
		if n > 0 {
			e.pending = append(e.pending, e.buf[:n]...)
			continue
		}
		if err != nil { // io.EOF or a terminal error
			e.sawEOF = true
			continue
		}
		return // no data yet
	}
}

// NewEchoServer installs an echo service: every accepted connection has its
// bytes reflected back until the client half-closes, then the server closes
// its direction. Echo is trivially deterministic, making it the canonical
// replicated test application.
func NewEchoServer(stack *tcp.Stack, port uint16) (*tcp.Listener, error) {
	return stack.Listen(port, func(c *tcp.Conn) {
		e := &echoConn{c: c, buf: make([]byte, copyBufSize)}
		c.OnReadable(e.pump)
		c.OnWritable(e.pump)
	})
}
