package memtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// randomRuns produces a word-aligned run sequence with contiguous
// stretches (exercising the merge path) and jumps.
func randomRuns(rng *rand.Rand, n int) []Run {
	runs := make([]Run, 0, n)
	addr := uint32(rng.Intn(1<<16) * WordBytes)
	for i := 0; i < n; i++ {
		bytes := uint32(rng.Intn(64)+1) * WordBytes
		if addr > 1<<31 {
			addr = uint32(rng.Intn(1<<16) * WordBytes)
		}
		runs = append(runs, Run{Addr: addr, Bytes: bytes})
		if rng.Intn(3) == 0 {
			addr += bytes // contiguous: must merge downstream
		} else {
			addr = uint32(rng.Intn(1<<20) * WordBytes)
		}
	}
	return runs
}

func TestMergerMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		runs := randomRuns(rng, rng.Intn(200))
		want := &Trace{}
		for _, r := range runs {
			want.Run(r)
		}
		got := &Trace{}
		// Feed through a Merger into a raw collector that does NOT
		// merge, so any merge must have happened in the Merger.
		var collected []Run
		m := NewMerger(sinkFunc(func(r Run) { collected = append(collected, r) }))
		for _, r := range runs {
			m.Run(r)
		}
		m.Flush()
		for _, r := range collected {
			got.Runs = append(got.Runs, r)
			got.Instrs += uint64(r.Words())
		}
		if len(got.Runs) != len(want.Runs) || got.Instrs != want.Instrs {
			t.Fatalf("trial %d: merger produced %d runs / %d instrs, Trace.Run %d / %d",
				trial, len(got.Runs), got.Instrs, len(want.Runs), want.Instrs)
		}
		for i := range got.Runs {
			if got.Runs[i] != want.Runs[i] {
				t.Fatalf("trial %d run %d: merger %+v, Trace.Run %+v", trial, i, got.Runs[i], want.Runs[i])
			}
		}
	}
}

type sinkFunc func(Run)

func (f sinkFunc) Run(r Run) { f(r) }

func TestMergerZeroAndReuse(t *testing.T) {
	var collected []Run
	m := NewMerger(sinkFunc(func(r Run) { collected = append(collected, r) }))
	m.Run(Run{Addr: 0, Bytes: 0}) // dropped
	m.Flush()                     // nothing pending
	if len(collected) != 0 {
		t.Fatalf("flush of empty merger emitted %v", collected)
	}
	m.Run(Run{Addr: 64, Bytes: 8})
	m.Flush()
	m.Run(Run{Addr: 128, Bytes: 4})
	m.Flush()
	want := []Run{{Addr: 64, Bytes: 8}, {Addr: 128, Bytes: 4}}
	if len(collected) != 2 || collected[0] != want[0] || collected[1] != want[1] {
		t.Fatalf("merger reuse: got %v, want %v", collected, want)
	}
}

// readTrace materializes a binary trace: a Reader replayed into a
// Trace.
func readTrace(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	if err := rd.Replay(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// TestReaderRoundTrip writes random raw runs and replays the file: the
// Reader must deliver exactly the canonical runs a Trace builds from
// the same raw runs, and a second Replay after the end delivers
// nothing.
func TestReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		runs := randomRuns(rng, rng.Intn(300))
		var buf bytes.Buffer
		wr := NewWriter(&buf)
		var want Trace
		for _, r := range runs {
			wr.Run(r)
			want.Run(r)
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got []Run
		collect := sinkFunc(func(r Run) { got = append(got, r) })
		if err := rd.Replay(collect); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Runs) {
			t.Fatalf("trial %d: Reader yielded %d runs, want %d", trial, len(got), len(want.Runs))
		}
		for i, r := range got {
			if r != want.Runs[i] {
				t.Fatalf("trial %d run %d: Reader %+v, want %+v", trial, i, r, want.Runs[i])
			}
		}
		if err := rd.Replay(collect); err != nil || len(got) != len(want.Runs) {
			t.Fatalf("Replay after the end: %v, %d runs, want nil and no new run", err, len(got)-len(want.Runs))
		}
	}
}

func TestReaderReplay(t *testing.T) {
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	runs := []Run{{Addr: 0, Bytes: 64}, {Addr: 256, Bytes: 16}, {Addr: 272, Bytes: 8}}
	for _, r := range runs {
		wr.Run(r)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := rd.Replay(&got); err != nil {
		t.Fatal(err)
	}
	want := []Run{{Addr: 0, Bytes: 64}, {Addr: 256, Bytes: 24}}
	if got.Instrs != 22 || len(got.Runs) != len(want) || got.Runs[0] != want[0] || got.Runs[1] != want[1] {
		t.Fatalf("Replay: %+v / %d instrs, want %+v / 22", got.Runs, got.Instrs, want)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("ITR1xxxx"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad magic: %v, want ErrBadTrace", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("empty input: %v, want ErrBadTrace", err)
	}

	// A malformed body must fail through Replay with ErrBadTrace, and
	// so must materializing it.
	bad := [][]byte{
		append([]byte("ITR2"), 0x80),                      // truncated varint
		append([]byte("ITR2"), encodeRun(-8, 16)...),      // negative address
		append([]byte("ITR2"), encodeRun(0, 7)...),        // unaligned length
		append([]byte("ITR2"), encodeRun(3, 8)...),        // unaligned address
		append([]byte("ITR2"), encodeRun(1<<33, 8)...),    // address out of range
		append([]byte("ITR2"), encodeRun(0, 0)...),        // zero length
		append([]byte("ITR2"), encodeRun(1<<32-8, 16)...), // end past 2^32
	}
	for i, data := range bad {
		if _, err := readTrace(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: readTrace accepted malformed trace (%v)", i, err)
		}
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("case %d: header rejected: %v", i, err)
		}
		var tr Trace
		err = rd.Replay(&tr)
		if !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: Reader.Replay = %v, want ErrBadTrace", i, err)
		}
		// Errors are sticky: the reader does not resynchronise.
		if err2 := rd.Replay(&tr); err2 != err {
			t.Errorf("case %d: Replay after error = %v, want %v", i, err2, err)
		}
	}
}

// encodeRun emits one varint(delta) uvarint(bytes) record.
func encodeRun(delta int64, bytes uint64) []byte {
	var b [2 * binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], delta)
	n += binary.PutUvarint(b[n:], bytes)
	return b[:n]
}

func TestBufferMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		// Cross chunk boundaries in some trials.
		n := rng.Intn(300)
		if trial%5 == 0 {
			n = bufferChunkRuns + rng.Intn(2*bufferChunkRuns)
		}
		runs := randomRuns(rng, n)
		want := &Trace{}
		var buf Buffer
		// The buffer stores what it is given; the Merger in front of
		// it makes the stream canonical.
		m := NewMerger(&buf)
		for _, r := range runs {
			want.Run(r)
			m.Run(r)
		}
		m.Flush()
		got := buf.Seal()
		if got.Instrs != want.Instrs || len(got.Runs) != len(want.Runs) {
			t.Fatalf("trial %d: sealed %d runs / %d instrs, want %d / %d",
				trial, len(got.Runs), got.Instrs, len(want.Runs), want.Instrs)
		}
		for i := range got.Runs {
			if got.Runs[i] != want.Runs[i] {
				t.Fatalf("trial %d run %d: sealed %+v, want %+v", trial, i, got.Runs[i], want.Runs[i])
			}
		}
		// Seal resets: the buffer is reusable.
		buf.Run(Run{Addr: 0, Bytes: 8})
		if again := buf.Seal(); len(again.Runs) != 1 || again.Instrs != 2 {
			t.Fatalf("trial %d: buffer after Seal sealed %d runs / %d instrs, want 1 / 2",
				trial, len(again.Runs), again.Instrs)
		}
	}
}

func TestTeeAndRunCount(t *testing.T) {
	var a, b Trace
	var count RunCount
	tee := Tee(&a, &b, &count)
	runs := []Run{{Addr: 0, Bytes: 64}, {Addr: 64, Bytes: 8}, {Addr: 256, Bytes: 16}}
	for _, r := range runs {
		tee.Run(r)
	}
	if a.Instrs != b.Instrs || a.Instrs != (64+8+16)/4 {
		t.Fatalf("tee delivered different streams: a=%d b=%d", a.Instrs, b.Instrs)
	}
	// RunCount counts raw deliveries (3 runs), the traces merge to 2.
	if count.Runs != 3 || count.Instrs != (64+8+16)/4 {
		t.Fatalf("RunCount = %d runs / %d instrs, want 3 / 22", count.Runs, count.Instrs)
	}
	if len(a.Runs) != 2 {
		t.Fatalf("trace merged to %d runs, want 2", len(a.Runs))
	}
}
