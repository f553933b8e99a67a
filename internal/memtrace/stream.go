package memtrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the streaming side of the package: producers and
// consumers that handle a run stream incrementally, without ever
// materializing a Trace. The canonical run sequence — the one Trace
// stores and Replay delivers — drops zero-length runs and merges
// address-contiguous neighbours. The Merger makes it: the execution
// engine feeds every sink through one, and Reader replays through one,
// so a sink cannot tell whether it sits behind a materialized trace,
// a live stream or a file. The differential tests in internal/cache
// and internal/experiments pin this bit-for-bit.

// Merger canonicalises a run stream exactly like Trace.Run does:
// zero-length runs are dropped and a run contiguous with the previous
// one merges into it. The sink behind a Merger therefore observes the
// identical run sequence that materializing a Trace and replaying it
// would deliver. Call Flush once the stream ends to emit the final
// pending run.
type Merger struct {
	sink    Sink
	pending Run
	started bool
}

// NewMerger returns a Merger feeding sink.
func NewMerger(sink Sink) *Merger { return &Merger{sink: sink} }

// Run accepts one raw run.
func (m *Merger) Run(r Run) {
	if r.Bytes == 0 {
		return
	}
	if !m.started {
		m.started = true
		m.pending = r
		return
	}
	if joined, ok := join(m.pending, r); ok {
		m.pending = joined
		return
	}
	m.sink.Run(m.pending)
	m.pending = r
}

// Flush emits the pending run, if any. The Merger is reusable
// afterwards: the next Run starts a fresh stream.
func (m *Merger) Flush() {
	if m.started {
		m.sink.Run(m.pending)
		m.started = false
	}
}

// Tee fans one run stream out to several sinks, in argument order.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Run(r Run) {
	for _, s := range t {
		s.Run(r)
	}
}

// RunCount is a Sink that counts the runs and instruction fetches it
// observes — the streaming stand-in for len(Trace.Runs) and
// Trace.Instrs when no trace is materialized. Place it behind a
// canonical source (the engine, a Merger or a Reader) to count
// canonical runs.
type RunCount struct {
	Runs   int
	Instrs uint64
}

// Run accumulates one run.
func (c *RunCount) Run(r Run) {
	c.Runs++
	c.Instrs += uint64(r.Words())
}

// Reader decodes a binary trace stream (the Writer format) in one
// pass, without materializing the run list: memory stays constant
// regardless of trace length, which is what lets a simulator consume
// arbitrarily long trace files. Replay delivers the canonical run
// sequence — adjacent contiguous runs in the file merge, as in Trace —
// so replaying into a Trace materializes the file.
type Reader struct {
	br      *bufio.Reader
	prevEnd int64
	i       int // run index, for error messages
	err     error
}

// NewReader checks the magic header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, m[:])
	}
	return &Reader{br: br}, nil
}

// next decodes one raw (pre-merge) run from the stream.
func (rd *Reader) next() (Run, error) {
	if _, err := rd.br.Peek(1); err == io.EOF {
		return Run{}, io.EOF
	}
	delta, err := binary.ReadVarint(rd.br)
	if err != nil {
		return Run{}, fmt.Errorf("%w: run %d address: %v", ErrBadTrace, rd.i, err)
	}
	bytes, err := binary.ReadUvarint(rd.br)
	if err != nil {
		return Run{}, fmt.Errorf("%w: run %d length: %v", ErrBadTrace, rd.i, err)
	}
	addr := rd.prevEnd + delta
	if addr < 0 || addr > 1<<32-1 || bytes == 0 || bytes > 1<<32-1 ||
		addr+int64(bytes) > 1<<32 || bytes%WordBytes != 0 || addr%WordBytes != 0 {
		return Run{}, fmt.Errorf("%w: run %d out of range (addr=%d bytes=%d)", ErrBadTrace, rd.i, addr, bytes)
	}
	rd.i++
	rd.prevEnd = addr + int64(bytes)
	return Run{Addr: uint32(addr), Bytes: uint32(bytes)}, nil
}

// Replay feeds every remaining canonical run to sink and returns the
// first decode error (ErrBadTrace), if any. On an error the run being
// merged is not delivered, and the error is sticky: the reader does
// not resynchronise, so every later Replay returns it again.
func (rd *Reader) Replay(sink Sink) error {
	if rd.err != nil {
		return rd.err
	}
	m := NewMerger(sink)
	for {
		r, err := rd.next()
		if err == io.EOF {
			m.Flush()
			return nil
		}
		if err != nil {
			rd.err = err
			return err
		}
		m.Run(r)
	}
}

// bufferChunkRuns is the Buffer chunk capacity: 4096 runs = 32KB per
// chunk, large enough that chunk bookkeeping is negligible and small
// enough that a growing trace never re-copies what it already stored.
const bufferChunkRuns = 4096

// Buffer accumulates a canonical run stream in fixed-size chunks. It
// is the materialization point for streams that must be replayed more
// than once (the experiments engine memoizes by trace content):
// appending is O(1) with no re-copying — a Trace built by repeated
// append re-copies its whole run slice on every growth step, which for
// multi-million-run traces is a measurable share of trace
// construction — and Seal converts to a Trace with a single
// exact-size allocation.
//
// Buffer stores the runs it is given and does not merge them: fed a
// canonical stream (the engine's, or a Merger's), sealing yields
// exactly the Trace that feeding the same stream to Trace.Run would
// build.
type Buffer struct {
	chunks [][]Run
	instrs uint64
	runs   int
}

// Run appends one run.
func (b *Buffer) Run(r Run) {
	b.instrs += uint64(r.Words())
	if n := len(b.chunks); n == 0 || len(b.chunks[n-1]) == bufferChunkRuns {
		b.chunks = append(b.chunks, make([]Run, 0, bufferChunkRuns))
	}
	n := len(b.chunks) - 1
	b.chunks[n] = append(b.chunks[n], r)
	b.runs++
}

// Seal converts the buffer into a Trace with one exact-size
// allocation. The buffer is reset and can be reused.
func (b *Buffer) Seal() *Trace {
	t := &Trace{Instrs: b.instrs}
	if b.runs > 0 {
		t.Runs = make([]Run, 0, b.runs)
		for _, ch := range b.chunks {
			t.Runs = append(t.Runs, ch...)
		}
	}
	b.chunks = nil
	b.instrs = 0
	b.runs = 0
	return t
}
