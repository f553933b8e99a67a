package experiments

// Section is one section of the report icexp prints: its name, under
// which icexp times it as the tables/<name> span, and the function
// that computes it over a suite and renders it.
type Section struct {
	Name string
	Run  func(*Suite) (string, error)
}

// section makes the Section name from a section's compute function
// and its renderer.
func section[R any](name string, compute func(*Suite) (R, error), render func(R) string) Section {
	return Section{name, func(s *Suite) (string, error) {
		rows, err := compute(s)
		if err != nil {
			return "", err
		}
		return render(rows), nil
	}}
}

// infallible adapts a compute function that cannot fail.
func infallible[R any](f func(*Suite) R) func(*Suite) (R, error) {
	return func(s *Suite) (R, error) { return f(s), nil }
}

// Tables are the paper's Tables 1-9, in order: Tables[n-1] is Table n.
var Tables = []Section{
	section("table1", Table1, RenderTable1),
	section("table2", infallible(Table2), RenderTable2),
	section("table3", infallible(Table3), RenderTable3),
	section("table4", infallible(Table4), RenderTable4),
	section("table5", infallible(Table5), RenderTable5),
	section("table6", Table6, RenderTable6),
	section("table7", Table7, RenderTable7),
	section("table8", Table8, RenderTable8),
	section("table9", Table9, RenderTable9),
}

// Ablations are the ablation studies the report prints: A1-A3, A5 and
// A6. A4 (AblationGlobal) is timed by the root benchmarks only.
var Ablations = []Section{
	section("ablation-layout", AblationLayout, RenderAblationLayout),
	section("ablation-assoc", AblationAssoc, RenderAblationAssoc),
	section("ablation-minprob", AblationMinProb, RenderAblationMinProb),
	section("ablation-replacement", AblationReplacement, RenderAblationReplacement),
	section("ablation-globalalgo", AblationGlobalAlgo, RenderAblationGlobalAlgo),
}

// Extensions returns the extension experiments E1-E5, in order. E2
// measures at ExtPagingConfig; E5 prepares its own programs at scale
// under opts, so that they are verified and observed like the suite's.
func Extensions(scale float64, opts Options) []Section {
	e2 := func(s *Suite) ([]PagingRow, error) { return ExtPaging(s, ExtPagingConfig()) }
	e5 := func(*Suite) ([]ExtendedRow, error) { return ExtExtendedSuite(scale, opts) }
	return []Section{
		section("ext-timing", ExtTiming, RenderExtTiming),
		section("ext-paging", e2, func(rows []PagingRow) string { return RenderExtPaging(ExtPagingConfig(), rows) }),
		section("ext-prefetch", ExtPrefetch, RenderExtPrefetch),
		section("ext-hierarchy", ExtHierarchy, RenderExtHierarchy),
		section("ext-extended", e5, RenderExtExtendedSuite),
	}
}
