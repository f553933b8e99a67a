package memtrace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzRead checks that the binary trace parser never panics, that any
// trace it accepts holds every word of the runs the file encodes, and
// that it round-trips through the writer unchanged.
func FuzzRead(f *testing.F) {
	// Seed with a valid trace.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Run(Run{Addr: 0, Bytes: 64})
	w.Run(Run{Addr: 4096, Bytes: 8})
	w.Run(Run{Addr: 0, Bytes: 4})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("ITR2"))
	f.Add([]byte("ITR1junk"))
	f.Add([]byte{'I', 'T', 'R', '2', 0x80, 0x80, 0x80})
	// A run ending at the 32-bit top, then a run at address 0.
	f.Add([]byte("ITR2\xe0\xff\xff\xff\x1f\x10\xff\xff\xff\xff\x1f\x10"))
	// Two contiguous runs whose joined length needs 33 bits.
	f.Add([]byte("ITR2\x00\x80\x80\x80\x80\x08\x00\x80\x80\x80\x80\x08"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A reader that dropped runs would pass the round trip below
		// by dropping them again, so count the raw runs' words too.
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted trace rejected on a second read: %v", err)
		}
		var words uint64
		for {
			r, err := rd.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("accepted trace has a bad raw run: %v", err)
			}
			words += uint64(r.Words())
		}
		if tr.Instrs != words {
			t.Fatalf("accepted trace holds %d instructions, its raw runs %d words", tr.Instrs, words)
		}
		var out bytes.Buffer
		wr := NewWriter(&out)
		tr.Replay(wr)
		if err := wr.Close(); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := readTrace(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if tr2.Instrs != tr.Instrs || len(tr2.Runs) != len(tr.Runs) {
			t.Fatalf("round trip changed trace: %d/%d vs %d/%d",
				tr.Instrs, len(tr.Runs), tr2.Instrs, len(tr2.Runs))
		}
	})
}
