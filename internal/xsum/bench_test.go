package xsum

import "testing"

// The checksum/parity primitives run once per NVM fill and writeback of
// DAX-mapped data, so their cost multiplies across every simulated cell of
// a campaign. These benchmarks pin down the per-line (64 B) and per-page
// (4 KB) costs; tools/benchdiff gates them against BENCH_8.json.

func mkbuf(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func BenchmarkChecksumLine(b *testing.B) {
	data := mkbuf(64, 1)
	b.ReportAllocs()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		sink = Checksum(data)
	}
}

func BenchmarkChecksumPage(b *testing.B) {
	data := mkbuf(4096, 1)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		sink = Checksum(data)
	}
}

func BenchmarkXORIntoLine(b *testing.B) {
	dst, src := mkbuf(64, 1), mkbuf(64, 2)
	b.ReportAllocs()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		XORInto(dst, src)
	}
}

func BenchmarkXORIntoPage(b *testing.B) {
	dst, src := mkbuf(4096, 1), mkbuf(4096, 2)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		XORInto(dst, src)
	}
}

func BenchmarkParityDeltaLine(b *testing.B) {
	parity, old, new_ := mkbuf(64, 1), mkbuf(64, 2), mkbuf(64, 3)
	b.ReportAllocs()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		ParityDelta(parity, old, new_)
	}
}

// sink defeats dead-code elimination of the measured calls.
var sink uint32
