// Package cliutil wires the observability surface into the command-
// line tools: every command gets the same four flags —
//
//	-v                  structured (log/slog) debug logging to stderr
//	-metrics-out FILE   write an obs JSON snapshot on exit
//	-trace-out FILE     write a Chrome trace-event timeline on exit
//	-cpuprofile FILE    write a pprof CPU profile
//	-memprofile FILE    write a pprof heap profile on exit
//
// — and a Common lifecycle: Start after flag parsing, Close before
// exit. Start installs the process-wide slog default (warn level
// normally, debug with -v), creates the metrics registry, attaches the
// cache simulator's counters to it, and begins CPU profiling.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"impact/internal/cache"
	"impact/internal/obs"
	"impact/internal/paging"
)

// Common holds the flag values and runtime state shared by all
// commands.
type Common struct {
	Verbose    bool
	MetricsOut string
	TraceOut   string
	CPUProfile string
	MemProfile string

	// Registry collects this process's metrics; non-nil after Start.
	Registry *obs.Registry

	tool    string
	cpuFile *os.File
}

// AddFlags registers the common observability flags on fs.
func AddFlags(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.BoolVar(&c.Verbose, "v", false, "verbose structured logging to stderr")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write metrics JSON snapshot to `file` on exit")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write Chrome trace-event timeline JSON to `file` on exit (load in Perfetto)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write pprof CPU profile to `file`")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write pprof heap profile to `file` on exit")
	return c
}

// Start applies the parsed flags: logging, metrics registry, cache
// counter attachment, CPU profiling. tool names the command in log
// lines.
func (c *Common) Start(tool string) error {
	c.tool = tool
	level := slog.LevelWarn
	if c.Verbose {
		level = slog.LevelDebug
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	c.Registry = obs.NewRegistry()
	cache.AttachObs(c.Registry)
	if c.TraceOut != "" {
		// The flight recorder only records (and only costs anything)
		// when a timeline was asked for.
		c.Registry.AttachTracer(obs.NewTracer(obs.DefaultTraceCapacity))
	}

	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return fmt.Errorf("%s: -cpuprofile: %w", tool, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: -cpuprofile: %w", tool, err)
		}
		c.cpuFile = f
		slog.Debug("cpu profiling started", "file", c.CPUProfile)
	}
	return nil
}

// Close flushes the profiles and the metrics snapshot. Call it on the
// command's normal exit path (error exits that os.Exit early lose the
// tail of the profile, which matches pprof convention).
func (c *Common) Close() error {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := c.cpuFile.Close(); err != nil {
			return fmt.Errorf("%s: -cpuprofile: %w", c.tool, err)
		}
		c.cpuFile = nil
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return fmt.Errorf("%s: -memprofile: %w", c.tool, err)
		}
		runtime.GC() // materialise up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: -memprofile: %w", c.tool, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: -memprofile: %w", c.tool, err)
		}
	}
	if c.TraceOut != "" {
		f, err := os.Create(c.TraceOut)
		if err != nil {
			return fmt.Errorf("%s: -trace-out: %w", c.tool, err)
		}
		tr := c.Registry.Tracer()
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: -trace-out: %w", c.tool, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: -trace-out: %w", c.tool, err)
		}
		if n := tr.Dropped(); n > 0 {
			slog.Warn("trace ring buffer wrapped; oldest events dropped", "dropped", n)
		}
		slog.Debug("trace written", "file", c.TraceOut)
	}
	if c.MetricsOut != "" {
		f, err := os.Create(c.MetricsOut)
		if err != nil {
			return fmt.Errorf("%s: -metrics-out: %w", c.tool, err)
		}
		if err := c.Registry.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: -metrics-out: %w", c.tool, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: -metrics-out: %w", c.tool, err)
		}
		slog.Debug("metrics written", "file", c.MetricsOut)
	}
	if c.Verbose {
		// A -v run gets the human-readable metric report on stderr.
		if err := c.Registry.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

// MustClose is Close for main-function tails: it reports the error on
// stderr and exits non-zero instead of returning it.
func (c *Common) MustClose() {
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// AddWorkersFlag registers the shared -workers flag: the worker count
// of every parallel pool the command runs — suite preparation, the
// measurement engine's trace passes and the portfolio search. A
// positive count sets GOMAXPROCS when the flag is parsed, and every
// pool sizes itself from GOMAXPROCS; zero keeps the runtime's default.
// Results are identical for every value — the flag only trades
// wall-clock time. A negative count is rejected at parse time.
func AddWorkersFlag(fs *flag.FlagSet) {
	fs.Var(new(workersValue), "workers", "worker `count` for preparation, measurement and search; a positive count sets GOMAXPROCS (0 = GOMAXPROCS, 1 = serial)")
}

// workersValue is the -workers flag: a non-negative int, applied to
// GOMAXPROCS when positive.
type workersValue int

func (w *workersValue) String() string { return strconv.Itoa(int(*w)) }

func (w *workersValue) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return errors.New("not an integer")
	}
	if n < 0 {
		return errors.New("worker count must be >= 0 (0 = GOMAXPROCS, 1 = serial)")
	}
	if n > 0 {
		runtime.GOMAXPROCS(n)
	}
	*w = workersValue(n)
	return nil
}

// AddScaleFlag registers the shared -scale flag: the multiplier on
// every benchmark's dynamic trace length, 1.0 reproducing the default
// experiment. Anything but a finite number above zero is rejected at
// parse time.
func AddScaleFlag(fs *flag.FlagSet) *float64 {
	s := 1.0
	fs.Var((*scaleValue)(&s), "scale", "dynamic trace length `multiplier` (> 0; 1.0 = the default experiment)")
	return &s
}

// scaleValue is the -scale flag: a finite float64 above zero.
type scaleValue float64

func (s *scaleValue) String() string { return strconv.FormatFloat(float64(*s), 'g', -1, 64) }

func (s *scaleValue) Set(v string) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return errors.New("not a number")
	}
	if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
		return errors.New("scale must be a finite number > 0")
	}
	*s = scaleValue(f)
	return nil
}

// CacheFlags holds the cache-geometry flags shared by every command
// that parameterises a cache organisation (icsim, impact simulate,
// impact run, impact analyze): one definition, one set of defaults,
// one help text.
type CacheFlags struct {
	Size    int
	Sizes   string
	Block   int
	Assoc   int
	Sector  int
	Partial bool
}

// AddCacheFlags registers the shared cache-geometry flags on fs with
// the paper's default organisation (2KB direct-mapped, 64B blocks,
// whole-block fill).
func AddCacheFlags(fs *flag.FlagSet) *CacheFlags {
	c := &CacheFlags{}
	fs.IntVar(&c.Size, "size", 2048, "cache size in bytes")
	fs.StringVar(&c.Sizes, "sizes", "", "comma-separated cache sizes to sweep in one pass (overrides -size)")
	fs.IntVar(&c.Block, "block", 64, "block size in bytes")
	fs.IntVar(&c.Assoc, "assoc", 1, "associativity (0 = fully associative)")
	fs.IntVar(&c.Sector, "sector", 0, "sector size in bytes (0 = whole-block fill)")
	fs.BoolVar(&c.Partial, "partial", false, "partial loading (fill from miss word to block end)")
	return c
}

// Config returns the cache configuration the flags describe. Policy
// extensions outside the shared set (replacement, prefetch, timing)
// stay at their zero values for the caller to fill in.
func (c *CacheFlags) Config() cache.Config {
	return cache.Config{
		SizeBytes:   c.Size,
		BlockBytes:  c.Block,
		Assoc:       c.Assoc,
		SectorBytes: c.Sector,
		PartialLoad: c.Partial,
	}
}

// SizeList parses -sizes. It returns nil (and no error) when the flag
// was not given, meaning the caller should use -size.
func (c *CacheFlags) SizeList() ([]int, error) {
	if c.Sizes == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(c.Sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -sizes entry %q: %w", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// Check validates the cache organisation a command builds from the
// flags — cfg is Config() with the command's policy extensions
// applied — at -size, or at every -sizes entry when that flag is
// given. Commands call it right after flag parsing, so a geometry no
// simulator accepts fails before any work starts; the error names the
// flags and their values.
func (c *CacheFlags) Check(cfg cache.Config) error {
	sizes, err := c.SizeList()
	if err != nil {
		return err
	}
	name := "-size"
	if sizes == nil {
		sizes = []int{cfg.SizeBytes}
	} else {
		name = "-sizes entry"
	}
	for _, size := range sizes {
		cfg.SizeBytes = size
		if err := cfg.Validate(); err != nil {
			geom := fmt.Sprintf("%s %d -block %d -assoc %d", name, size, c.Block, c.Assoc)
			if c.Sector != 0 {
				geom += fmt.Sprintf(" -sector %d", c.Sector)
			}
			if c.Partial {
				geom += " -partial"
			}
			return fmt.Errorf("invalid cache geometry (%s): %w", geom, err)
		}
	}
	return nil
}

// PagingFlags holds the page-geometry flags shared by every command
// that parameterises instruction paging (icsim, impact
// simulate/analyze/search, icexp), mirroring CacheFlags: one
// definition, one set of defaults, one help text.
type PagingFlags struct {
	PageBytes int
	Frames    int
}

// AddPagingFlags registers the shared page-geometry flags on fs (4KB
// pages, 8 resident frames).
func AddPagingFlags(fs *flag.FlagSet) *PagingFlags {
	p := &PagingFlags{}
	fs.IntVar(&p.PageBytes, "page-bytes", 4096, "page size in bytes (power of two >= 64)")
	fs.IntVar(&p.Frames, "frames", 8, "resident page frames (0 = unbounded memory)")
	return p
}

// Config returns the paging configuration the flags describe.
func (p *PagingFlags) Config() paging.Config {
	return paging.Config{PageBytes: p.PageBytes, Frames: p.Frames}
}

// Check validates the paging geometry the flags describe. Commands
// call it right after flag parsing; the error names the flags and
// their values.
func (p *PagingFlags) Check() error {
	if err := p.Config().Validate(); err != nil {
		return fmt.Errorf("invalid paging geometry (-page-bytes %d -frames %d): %w", p.PageBytes, p.Frames, err)
	}
	return nil
}

// InvalidValue is the usage error for a flag value outside the set the
// flag accepts, worded the way the flag package words a malformed one.
func InvalidValue(flag, value string, err error) error {
	return fmt.Errorf("invalid value %q for flag -%s: %w", value, flag, err)
}

// ExitUsage reports a flag value the command cannot run with the way
// the flag package reports a malformed one: the message on stderr and
// exit status 2.
func ExitUsage(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(2)
}
