// Package memtrace represents dynamic instruction-address traces.
//
// The paper evaluates placement by "trace driven simulation" over "the
// entire execution traces". A trace here is the sequence of instruction
// fetch addresses a processor would issue. Because instruction fetch is
// sequential between taken control transfers, the trace is stored as
// maximal sequential runs: (start address, byte length) pairs. A run
// boundary is exactly a non-sequential fetch — a taken branch, call,
// or return whose target is not the next address.
//
// The run representation is purely an encoding: consumers that need
// per-instruction semantics (the cache simulator) iterate the words of
// each run and observe the identical access stream, at a fraction of
// the memory footprint of a flat address list.
//
// Runs are made maximal in one place per source: the execution engine
// (interp.Engine.Trace) feeds its sink through a Merger, Reader
// replays a file through one, and Trace.Run merges the runs of a trace
// built by hand. Every other sink — Buffer, Writer, the simulators —
// takes the runs it is given as they are.
package memtrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// WordBytes is the instruction fetch granularity (one instruction).
const WordBytes = 4

// Run is a maximal sequential stretch of instruction fetches starting
// at Addr and covering Bytes bytes. Addr and Bytes are word-aligned.
type Run struct {
	Addr  uint32
	Bytes uint32
}

// Words returns the number of instruction fetches in the run.
func (r Run) Words() uint32 { return r.Bytes / WordBytes }

// WordRange returns the half-open range [w0, w1) of word indices the
// run covers. A run whose Addr+Bytes would overflow uint32 saturates
// at the top of the address space instead of wrapping: wrap-around
// would silently drop the run (or worse, alias low memory), so the
// accessible prefix is kept and the overflowing tail is discarded.
// Well-formed traces (everything Read accepts) never saturate.
func (r Run) WordRange() (w0, w1 uint32) {
	w0 = r.Addr / WordBytes
	end := uint64(r.Addr) + uint64(r.Bytes)
	if end > 1<<32 {
		end = 1 << 32
	}
	return w0, uint32(end / WordBytes)
}

// join returns prev extended by r, and whether r continues prev: it
// starts where prev ends, and the joined length fits in 32 bits. Both
// are computed in 64 bits, so a run that ends at the top of the
// address space is never continued by one at address 0, and a joined
// run never wraps to a short one. Trace.Run and Merger merge by this
// rule.
func join(prev, r Run) (Run, bool) {
	end := uint64(prev.Addr) + uint64(prev.Bytes)
	n := uint64(prev.Bytes) + uint64(r.Bytes)
	if end != uint64(r.Addr) || n > math.MaxUint32 {
		return prev, false
	}
	return Run{Addr: prev.Addr, Bytes: uint32(n)}, true
}

// Sink consumes a stream of runs.
type Sink interface {
	Run(r Run)
}

// Trace is an in-memory address trace.
type Trace struct {
	Runs []Run
	// Instrs is the total number of instruction fetches.
	Instrs uint64
}

// Run appends a run, merging it with the previous run when the
// addresses are contiguous (a not-taken fall-through between adjacent
// blocks is not a fetch discontinuity).
func (t *Trace) Run(r Run) {
	if r.Bytes == 0 {
		return
	}
	t.Instrs += uint64(r.Words())
	if n := len(t.Runs); n > 0 {
		if m, ok := join(t.Runs[n-1], r); ok {
			t.Runs[n-1] = m
			return
		}
	}
	t.Runs = append(t.Runs, r)
}

// AvgRunWords returns the mean sequential run length in words — a
// direct measure of the sequential locality the layout achieved.
func (t *Trace) AvgRunWords() float64 {
	if len(t.Runs) == 0 {
		return 0
	}
	return float64(t.Instrs) / float64(len(t.Runs))
}

// Replay feeds every run to sink.
func (t *Trace) Replay(sink Sink) {
	for _, r := range t.Runs {
		sink.Run(r)
	}
}

// Binary trace file format ("ITR2"):
//
//	magic "ITR2" | runs until EOF
//
// Each run is varint(delta address) uvarint(bytes), where the delta is
// taken against the previous run's end address, so hot loops (small
// backward jumps) encode in 2-3 bytes per run. The stream has no
// length header: readers consume runs until EOF, so writers never
// buffer the trace.

var magic = [4]byte{'I', 'T', 'R', '2'}

// Writer streams runs to an io.Writer in the binary trace format. It
// encodes each run as given and does not merge: a Reader replaying the
// file merges contiguous runs. Call Close to flush the stream.
type Writer struct {
	w       *bufio.Writer
	buf     [2 * binary.MaxVarintLen64]byte
	prevEnd int64
	err     error
}

// NewWriter returns a trace writer. Call Close when done.
func NewWriter(w io.Writer) *Writer {
	wr := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	_, wr.err = wr.w.Write(magic[:])
	return wr
}

// Run appends one run to the stream. A zero-length run, which the
// format cannot hold, is dropped.
func (wr *Writer) Run(r Run) {
	if r.Bytes == 0 || wr.err != nil {
		return
	}
	n := binary.PutVarint(wr.buf[:], int64(r.Addr)-wr.prevEnd)
	n += binary.PutUvarint(wr.buf[n:], uint64(r.Bytes))
	if _, err := wr.w.Write(wr.buf[:n]); err != nil {
		wr.err = err
		return
	}
	wr.prevEnd = int64(r.Addr) + int64(r.Bytes)
}

// Close flushes the stream. A trace with zero runs still gets its
// magic header.
func (wr *Writer) Close() error {
	if wr.err != nil {
		return wr.err
	}
	return wr.w.Flush()
}

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("memtrace: malformed trace file")
