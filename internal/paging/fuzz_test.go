package paging

import (
	"encoding/binary"
	"testing"

	"impact/internal/memtrace"
)

// decodeTrace turns raw fuzz bytes into a trace: each 4-byte chunk is
// a word address in a 64KB window, a run length of 1 to 64 words and
// one of four 1GB regions, so small pages contend and the largest
// pages still see two.
func decodeTrace(data []byte) *memtrace.Trace {
	tr := &memtrace.Trace{}
	for len(data) >= 4 && len(tr.Runs) < 4096 {
		v := binary.LittleEndian.Uint32(data)
		data = data[4:]
		addr := (v&0x3FFF)*memtrace.WordBytes + (v>>20&3)<<30
		words := (v>>14)&0x3F + 1
		tr.Run(memtrace.Run{Addr: addr, Bytes: words * memtrace.WordBytes})
	}
	return tr
}

// FuzzPaging cross-checks Simulate on arbitrary traces and
// fuzzer-chosen geometries: the page size is 64 << (shift mod 26), up
// to 1<<31, and the frame count is frames (0 is unbounded). Simulate,
// a simulator fed word-fragmented runs through a Merger, and the
// oracle must agree on every field. The seed corpus runs as ordinary
// unit tests; `go test -fuzz=FuzzPaging ./internal/paging` explores
// further.
func FuzzPaging(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(6), uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(25), uint8(1))
	seed := make([]byte, 0, 1024)
	for i := 0; i < 256; i++ {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(i*2654435761))
		seed = append(seed, b[:]...)
	}
	f.Add(seed, uint8(0), uint8(8))
	f.Add(seed, uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shift, frames uint8) {
		cfg := Config{PageBytes: 64 << (shift % 26), Frames: int(frames)}
		checkAgainstOracle(t, cfg, decodeTrace(data))
	})
}
