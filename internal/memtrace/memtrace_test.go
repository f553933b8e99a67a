package memtrace

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRunWords(t *testing.T) {
	if got := (Run{Addr: 0, Bytes: 64}).Words(); got != 16 {
		t.Fatalf("Words = %d, want 16", got)
	}
}

func TestTraceMergesAdjacent(t *testing.T) {
	var tr Trace
	tr.Run(Run{Addr: 0, Bytes: 16})
	tr.Run(Run{Addr: 16, Bytes: 8})
	tr.Run(Run{Addr: 64, Bytes: 4})
	if len(tr.Runs) != 2 {
		t.Fatalf("got %d runs, want 2 (adjacent merged)", len(tr.Runs))
	}
	if tr.Runs[0] != (Run{Addr: 0, Bytes: 24}) {
		t.Fatalf("merged run = %+v", tr.Runs[0])
	}
	if tr.Instrs != 7 {
		t.Fatalf("Instrs = %d, want 7", tr.Instrs)
	}
}

func TestTraceIgnoresEmptyRuns(t *testing.T) {
	var tr Trace
	tr.Run(Run{Addr: 4, Bytes: 0})
	if len(tr.Runs) != 0 || tr.Instrs != 0 {
		t.Fatal("empty run recorded")
	}
}

func TestTraceDoesNotMergeBackwardJump(t *testing.T) {
	var tr Trace
	tr.Run(Run{Addr: 0, Bytes: 16})
	tr.Run(Run{Addr: 0, Bytes: 16}) // loop back
	if len(tr.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(tr.Runs))
	}
}

func TestAvgRunWords(t *testing.T) {
	var tr Trace
	if tr.AvgRunWords() != 0 {
		t.Fatal("empty trace AvgRunWords != 0")
	}
	tr.Run(Run{Addr: 0, Bytes: 16})
	tr.Run(Run{Addr: 32, Bytes: 16})
	if got := tr.AvgRunWords(); got != 4 {
		t.Fatalf("AvgRunWords = %v, want 4", got)
	}
}

func TestReplay(t *testing.T) {
	var tr Trace
	tr.Run(Run{Addr: 0, Bytes: 16})
	tr.Run(Run{Addr: 64, Bytes: 8})
	var got Trace
	tr.Replay(&got)
	if len(got.Runs) != 2 || got.Instrs != tr.Instrs {
		t.Fatal("replay did not reproduce trace")
	}
}

func TestRoundTrip(t *testing.T) {
	var tr Trace
	tr.Run(Run{Addr: 1024, Bytes: 64})
	tr.Run(Run{Addr: 0, Bytes: 4})
	tr.Run(Run{Addr: 1 << 30, Bytes: 128})
	tr.Run(Run{Addr: 4, Bytes: 4})

	var buf bytes.Buffer
	w := NewWriter(&buf)
	tr.Replay(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(tr.Runs) {
		t.Fatalf("round trip: %d runs, want %d", len(got.Runs), len(tr.Runs))
	}
	for i := range tr.Runs {
		if got.Runs[i] != tr.Runs[i] {
			t.Fatalf("run %d: %+v != %+v", i, got.Runs[i], tr.Runs[i])
		}
	}
	if got.Instrs != tr.Instrs {
		t.Fatalf("Instrs %d != %d", got.Instrs, tr.Instrs)
	}
}

func TestWriterMergesLikeTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Run(Run{Addr: 0, Bytes: 8})
	w.Run(Run{Addr: 8, Bytes: 8})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 || got.Runs[0].Bytes != 16 {
		t.Fatalf("writer did not merge adjacent runs: %+v", got.Runs)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := readTrace(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := readTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Valid magic, truncated body: a partial varint after the header.
	if _, err := readTrace(bytes.NewReader([]byte{'I', 'T', 'R', '2', 0x80})); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestReadRejectsMisaligned(t *testing.T) {
	// Hand-encode a run with a 3-byte length.
	var buf bytes.Buffer
	buf.Write([]byte{'I', 'T', 'R', '2'})
	buf.Write([]byte{0}) // delta 0
	buf.Write([]byte{3}) // 3 bytes: misaligned
	if _, err := readTrace(&buf); err == nil {
		t.Fatal("misaligned run accepted")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 0 || got.Instrs != 0 {
		t.Fatalf("empty trace round-tripped to %+v", got)
	}
}

func TestWriterStreamsWithoutBuffering(t *testing.T) {
	// After many non-adjacent runs, the writer must have emitted bytes
	// beyond the header before Close (it streams, it does not buffer).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint32(0); i < 100000; i++ {
		w.Run(Run{Addr: (i % 7) * 1024, Bytes: 8})
	}
	if buf.Len() < 1<<16 {
		t.Fatalf("writer buffered everything: only %d bytes emitted before Close", buf.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Instrs != 200000 {
		t.Fatalf("instrs = %d, want 200000", got.Instrs)
	}
}

// TestRoundTripProperty exercises encode/decode over random traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		var tr Trace
		for _, s := range seeds {
			addr := (s % (1 << 20)) * WordBytes
			b := (s%64 + 1) * WordBytes
			tr.Run(Run{Addr: addr, Bytes: b})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		tr.Replay(w)
		if w.Close() != nil {
			return false
		}
		got, err := readTrace(&buf)
		if err != nil {
			return false
		}
		if got.Instrs != tr.Instrs || len(got.Runs) != len(tr.Runs) {
			return false
		}
		for i := range tr.Runs {
			if got.Runs[i] != tr.Runs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactEncoding(t *testing.T) {
	// A hot loop: 1000 iterations of a 32-byte body at the same
	// address should encode in ~2-3 bytes per run.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 1000; i++ {
		w.Run(Run{Addr: 4096, Bytes: 32})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4*1000 {
		t.Fatalf("loop trace encoded in %d bytes, want < 4000", buf.Len())
	}
}
