package experiments

import (
	"fmt"

	"impact/internal/cache"
	"impact/internal/texttable"
	"impact/internal/workload"
)

// ---------------------------------------------------------------------------
// E4 — Two-level hierarchy: a small on-chip instruction cache backed
// by an outside cache, the memory system the paper's section 4.2.1
// assumes ("the data from an outside cache or the main memory").

// HierarchyL1 and HierarchyL2 are the modelled organisations.
var (
	HierarchyL1 = cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	HierarchyL2 = cache.Config{SizeBytes: 16384, BlockBytes: 64, Assoc: 2}
)

// HierarchyRow holds one benchmark's two-level results for both
// layouts.
type HierarchyRow struct {
	Name string
	// L1Miss is the first-level miss ratio; Global is L2 misses per
	// instruction fetch (what actually reaches main memory).
	OptL1Miss, OptGlobal float64
	NatL1Miss, NatGlobal float64
}

// ExtHierarchy measures the two-level system.
func ExtHierarchy(s *Suite) ([]HierarchyRow, error) {
	var out []HierarchyRow
	for _, p := range s.Items {
		s1o, s2o, err := cache.SimulateHierarchy(HierarchyL1, HierarchyL2, p.OptTrace)
		if err != nil {
			return nil, err
		}
		s1n, s2n, err := cache.SimulateHierarchy(HierarchyL1, HierarchyL2, p.NatTrace)
		if err != nil {
			return nil, err
		}
		out = append(out, HierarchyRow{
			Name:      p.Name(),
			OptL1Miss: s1o.MissRatio(),
			OptGlobal: float64(s2o.Misses) / float64(s1o.Accesses),
			NatL1Miss: s1n.MissRatio(),
			NatGlobal: float64(s2n.Misses) / float64(s1n.Accesses),
		})
	}
	return out, nil
}

// RenderExtHierarchy formats E4.
func RenderExtHierarchy(rows []HierarchyRow) string {
	t := texttable.New(
		fmt.Sprintf("Extension E4. Two-Level Hierarchy (L1 %s, L2 %s)", HierarchyL1, HierarchyL2),
		"name", "opt L1 miss", "opt global", "nat L1 miss", "nat global")
	for _, r := range rows {
		t.Row(r.Name,
			texttable.Pct3(r.OptL1Miss), texttable.Pct3(r.OptGlobal),
			texttable.Pct3(r.NatL1Miss), texttable.Pct3(r.NatGlobal))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E5 — Extended benchmark suite: the paper's announced ">30 UNIX and
// CAD programs" expansion, measured at the headline design point.

// ExtendedRow holds one extension benchmark's headline numbers.
type ExtendedRow struct {
	Name        string
	StaticBytes int
	OptMiss     float64
	NatMiss     float64
	OptTraffic  float64
}

// ExtExtendedSuite runs the full pipeline on the extension benchmarks
// and measures the 2KB/64B direct-mapped design point against the
// natural baseline. The scale applies to the extension's dynamic
// trace lengths. The benchmarks are prepared under opts when given
// (PrepareBenchmarksWith), so that they are verified and observed like
// the suite's.
func ExtExtendedSuite(scale float64, opts ...Options) ([]ExtendedRow, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	suite, err := PrepareBenchmarksWith(workload.ExtendedSuite(scale), o)
	if err != nil {
		return nil, err
	}
	cfg := cache.Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	var out []ExtendedRow
	for _, p := range suite.Items {
		so, err := measure(p, cfg, true)
		if err != nil {
			return nil, err
		}
		sn, err := measure(p, cfg, false)
		if err != nil {
			return nil, err
		}
		out = append(out, ExtendedRow{
			Name:        p.Name(),
			StaticBytes: p.Opt.TotalBytes,
			OptMiss:     so.MissRatio(),
			NatMiss:     sn.MissRatio(),
			OptTraffic:  so.TrafficRatio(),
		})
	}
	return out, nil
}

// RenderExtExtendedSuite formats E5.
func RenderExtExtendedSuite(rows []ExtendedRow) string {
	t := texttable.New("Extension E5. Extended UNIX/CAD Suite (2KB/64B direct-mapped)",
		"name", "static", "opt miss", "opt traffic", "nat miss")
	var optSum, natSum float64
	for _, r := range rows {
		t.Row(r.Name, texttable.KB(r.StaticBytes),
			texttable.Pct3(r.OptMiss), texttable.Pct(r.OptTraffic), texttable.Pct3(r.NatMiss))
		optSum += r.OptMiss
		natSum += r.NatMiss
	}
	if n := float64(len(rows)); n > 0 {
		t.Row("average", "", texttable.Pct3(optSum/n), "", texttable.Pct3(natSum/n))
	}
	return t.String()
}
