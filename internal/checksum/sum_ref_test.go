package checksum

import (
	"bytes"
	"slices"
	"testing"
)

// refSum is the 16-bit-word loop Sum used before it went 8 bytes wide, kept
// as the oracle the wide loop must match: one 16-bit word per step into a
// 32-bit accumulator, with the odd byte carried across chunk boundaries.
func refSum(chunks ...[]byte) uint16 {
	var sum uint32
	odd := false
	var carryByte byte
	for _, b := range chunks {
		i := 0
		if odd && len(b) > 0 {
			sum += uint32(carryByte)<<8 | uint32(b[0])
			i = 1
			odd = false
		}
		n := len(b)
		for ; i+1 < n; i += 2 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
		if i < n {
			carryByte = b[i]
			odd = true
		}
	}
	if odd {
		sum += uint32(carryByte) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// splitChunks cuts data into up to 4 chunks at the given cut points, each
// reduced modulo len(data)+1, so any boundary (odd ones included) and empty
// chunks occur.
func splitChunks(data []byte, cuts [3]uint16) [][]byte {
	pos := []int{0}
	for _, c := range cuts {
		pos = append(pos, int(c)%(len(data)+1))
	}
	pos = append(pos, len(data))
	slices.Sort(pos)
	chunks := make([][]byte, 0, 4)
	for i := 1; i < len(pos); i++ {
		chunks = append(chunks, data[pos[i-1]:pos[i]])
	}
	return chunks
}

// FuzzSumMatchesReference: Sum on data split into up to 4 chunks at any
// boundary equals the 16-bit reference loop. The all-0x00 and all-0xff
// seeds pin the representation of one's-complement zero: the sum of zero
// words is 0x0000 (checksum 0xffff), while a nonzero sum congruent to zero
// is 0xffff (checksum 0x0000).
func FuzzSumMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0))
	f.Add(make([]byte, 64), uint16(3), uint16(17), uint16(40))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(1), uint16(33), uint16(9))
	f.Add(bytes.Repeat([]byte{0xff}, 1481), uint16(20), uint16(21), uint16(1000))
	f.Add([]byte{0xab}, uint16(0), uint16(1), uint16(1))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7, 0x9}, uint16(5), uint16(2), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, c0, c1, c2 uint16) {
		chunks := splitChunks(data, [3]uint16{c0, c1, c2})
		if got, want := Sum(chunks...), refSum(chunks...); got != want {
			t.Fatalf("Sum = %#04x, reference = %#04x (len %d)", got, want, len(data))
		}
		if got, want := Sum(data), refSum(data); got != want {
			t.Fatalf("Sum whole = %#04x, reference = %#04x (len %d)", got, want, len(data))
		}
	})
}

// BenchmarkSum measures a full-size segment's checksum: a 20-byte TCP
// header followed by a 1460-byte payload, as two chunks.
func BenchmarkSum(b *testing.B) {
	hdr := make([]byte, 20)
	payload := make([]byte, 1460)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	b.SetBytes(int64(len(hdr) + len(payload)))
	for b.Loop() {
		Sum(hdr, payload)
	}
}

// BenchmarkSumReference is BenchmarkSum on the 16-bit reference loop.
func BenchmarkSumReference(b *testing.B) {
	hdr := make([]byte, 20)
	payload := make([]byte, 1460)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	b.SetBytes(int64(len(hdr) + len(payload)))
	for b.Loop() {
		refSum(hdr, payload)
	}
}
