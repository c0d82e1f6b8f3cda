package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// refPattern is the per-byte definition of the test pattern, kept as the
// oracle for the table-driven Pattern and VerifyPattern.
func refPattern(p []byte, off int64) {
	for i := range p {
		x := off + int64(i)
		p[i] = byte(x*131 + (x>>8)*31 + (x>>16)*7)
	}
}

// patternOffset draws offsets that often sit just below the 2^8, 2^16
// and 2^24 carries of the pattern's high terms, so runs cross them.
func patternOffset(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return rng.Int63n(1 << 40)
	case 1:
		return (1<<8)*(1+rng.Int63n(1<<20)) - rng.Int63n(300)
	case 2:
		return (1<<16)*(1+rng.Int63n(1<<12)) - rng.Int63n(3000)
	default:
		return (1<<24)*(1+rng.Int63n(1<<8)) - rng.Int63n(3000)
	}
}

func TestPatternMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for range 20000 {
		off := patternOffset(rng)
		n := rng.Intn(3001)
		want := make([]byte, n)
		refPattern(want, off)
		got := make([]byte, n)
		Pattern(got, off)
		if string(got) != string(want) {
			t.Fatalf("Pattern(off=%d, n=%d) differs from the reference", off, n)
		}
		if i := VerifyPattern(want, off); i != -1 {
			t.Fatalf("VerifyPattern(off=%d, n=%d) rejects the reference at %d", off, n, i)
		}
		if n == 0 {
			continue
		}
		flip := rng.Intn(n)
		want[flip] ^= byte(1 + rng.Intn(255))
		if i := VerifyPattern(want, off); i != flip {
			t.Fatalf("VerifyPattern(off=%d, n=%d) = %d after flipping byte %d", off, n, i, flip)
		}
	}
}

// TestPatternDigest pins the pattern itself. A bug shared by the generator
// and the verifier passes every round trip; a fixed digest of the
// reference formula's output over [0, 1 MiB) does not.
func TestPatternDigest(t *testing.T) {
	const want = "43a6861b67d4b034246f80ffea94c99e9c37af594a23056f178e353dbc55149a"
	ref := make([]byte, 1<<20)
	refPattern(ref, 0)
	got := make([]byte, 1<<20)
	Pattern(got, 0)
	for name, p := range map[string][]byte{"reference": ref, "Pattern": got} {
		sum := sha256.Sum256(p)
		if h := hex.EncodeToString(sum[:]); h != want {
			t.Errorf("%s over [0, 1 MiB): sha256 %s, want %s", name, h, want)
		}
	}
}

func FuzzPatternMatchesReference(f *testing.F) {
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(255), uint16(2), uint16(1))
	f.Add(int64(1<<16-7), uint16(3000), uint16(100))
	f.Add(int64(1<<24-1000), uint16(2048), uint16(999))
	f.Fuzz(func(t *testing.T, off int64, n, flip uint16) {
		if off < 0 {
			off = -(off + 1)
		}
		off %= 1 << 48
		want := make([]byte, n)
		refPattern(want, off)
		got := make([]byte, n)
		Pattern(got, off)
		if string(got) != string(want) {
			t.Fatalf("Pattern(off=%d, n=%d) differs from the reference", off, n)
		}
		if i := VerifyPattern(want, off); i != -1 {
			t.Fatalf("VerifyPattern rejects the reference at %d", i)
		}
		if n > 0 {
			j := int(flip) % int(n)
			want[j] ^= 0x5a
			if i := VerifyPattern(want, off); i != j {
				t.Fatalf("VerifyPattern = %d after flipping byte %d", i, j)
			}
		}
	})
}

// TestPatternBufServesPattern: any sequence of requests, including
// backward resets (a new HTTP body restarts at offset 0) and reads into
// the shared buffer, returns exactly the pattern asked for.
func TestPatternBufServesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pb := newPatternBuf()
	var off int64
	want := make([]byte, copyBufSize)
	for step := range 20000 {
		switch r := rng.Intn(20); {
		case r == 0: // a new response body
			off = 0
		case r == 1: // a jump backward or far forward
			off = patternOffset(rng)
		case r == 2: // a Read overwrote the buffer
			rng.Read(pb.buf[:1+rng.Intn(len(pb.buf))])
			pb.invalidate()
		default: // the last Write accepted part of the slice
			off += int64(rng.Intn(3000))
		}
		n := 1 + rng.Intn(copyBufSize)
		if rng.Intn(3) > 0 {
			n = copyBufSize
		}
		got := pb.get(off, n)
		refPattern(want[:n], off)
		if string(got) != string(want[:n]) {
			t.Fatalf("step %d: get(%d, %d) differs from the pattern", step, off, n)
		}
	}
}

func BenchmarkPattern(b *testing.B) {
	p := make([]byte, copyBufSize)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		Pattern(p, 1<<20+77)
	}
}

func BenchmarkVerifyPattern(b *testing.B) {
	p := make([]byte, copyBufSize)
	Pattern(p, 1<<20+77)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		if VerifyPattern(p, 1<<20+77) != -1 {
			b.Fatal("mismatch")
		}
	}
}

// BenchmarkPatternReference is BenchmarkPattern on the per-byte formula.
func BenchmarkPatternReference(b *testing.B) {
	p := make([]byte, copyBufSize)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		refPattern(p, 1<<20+77)
	}
}
