package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
)

// goldenPath is the committed output of `icexp -scale 1.0 -ablations
// -extensions`, which the tables workload at seed 0 and scale 1 must
// reproduce section by section.
const goldenPath = "docs/results-full.txt"

// e2Columns are the E2 columns the golden file can referee. It was
// written at E2's default geometry before E2 gained its fault columns,
// so those are not compared.
var e2Columns = []string{"name", "opt pages", "nat pages", "opt WS", "nat WS"}

// golden maps a section's key ("Table 1", "Ablation A1", "Extension
// E2") to its expected text.
type golden map[string]string

func loadGolden(path string) (golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := golden{}
	for _, block := range strings.Split(normalize(string(data)), "\n\n") {
		if block = strings.Trim(block, "\n"); block != "" {
			g[sectionKey(block)] = block
		}
	}
	return g, nil
}

// normalize drops trailing blanks from every line and blank lines from
// both ends.
func normalize(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t\r")
	}
	return strings.Trim(strings.Join(lines, "\n"), "\n")
}

// sectionKey is the part of a section's title before its first ". ".
func sectionKey(text string) string {
	title, _, _ := strings.Cut(text, "\n")
	key, _, _ := strings.Cut(title, ". ")
	return key
}

// match checks one rendered section against its golden text.
func (g golden) match(rendered string) error {
	got := normalize(rendered)
	key := sectionKey(got)
	want, ok := g[key]
	if !ok {
		return fmt.Errorf("%s has no section %q", goldenPath, key)
	}
	if key == "Extension E2" {
		return matchColumns(key, want, got, e2Columns)
	}
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "(end of section)"
			if i < len(wl) {
				w = wl[i]
			}
			return fmt.Errorf("%s line %d differs from %s:\n  got  %s\n  want %s", key, i+1, goldenPath, gl[i], w)
		}
	}
	return fmt.Errorf("%s has %d lines, %s has %d", key, len(gl), goldenPath, len(wl))
}

// cellSep separates table cells: texttable pads columns with two or
// more spaces, and cells hold at most single spaces.
var cellSep = regexp.MustCompile(` {2,}`)

// matchColumns compares the named columns of two rendered tables row
// by row.
func matchColumns(key, want, got string, cols []string) error {
	wt, err := columns(want, cols)
	if err != nil {
		return fmt.Errorf("%s in %s: %w", key, goldenPath, err)
	}
	gt, err := columns(got, cols)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if len(gt) != len(wt) {
		return fmt.Errorf("%s has %d rows, %s has %d", key, len(gt), goldenPath, len(wt))
	}
	for i := range gt {
		for j, c := range cols {
			if gt[i][j] != wt[i][j] {
				return fmt.Errorf("%s row %d column %q is %s, %s has %s", key, i+1, c, gt[i][j], goldenPath, wt[i][j])
			}
		}
	}
	return nil
}

// columns extracts the named columns of a rendered table (title,
// header, rule, rows).
func columns(table string, cols []string) ([][]string, error) {
	lines := strings.Split(table, "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("table has %d lines", len(lines))
	}
	idx := map[string]int{}
	for i, h := range cellSep.Split(strings.TrimSpace(lines[1]), -1) {
		idx[h] = i
	}
	var out [][]string
	for _, line := range lines[3:] {
		cells := cellSep.Split(strings.TrimSpace(line), -1)
		row := make([]string, len(cols))
		for j, c := range cols {
			i, ok := idx[c]
			if !ok || i >= len(cells) {
				return nil, fmt.Errorf("no column %q", c)
			}
			row[j] = cells[i]
		}
		out = append(out, row)
	}
	return out, nil
}
