// Package experiments is the reproduction harness: it wires datasets,
// partitions, models, and methods into the exact workloads behind each of
// the paper's artifacts (Table I, Fig. 1, the communication-cost claims)
// plus the extension studies DESIGN.md lists, and renders results as
// ASCII tables/heatmaps and CSV.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"fedclust/internal/tensor"
)

// Table accumulates rows and renders an aligned ASCII table.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Header) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	fmt.Fprintln(w, line(t.Header))
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
}

// pad fills s out to w columns, one per rune.
func pad(s string, w int) string {
	if n := utf8.RuneCountInString(s); n < w {
		return s + strings.Repeat(" ", w-n)
	}
	return s
}

// heatChars maps normalized magnitude to shading, light to dark.
var heatChars = []rune{' ', '░', '▒', '▓', '█'}

// RenderHeatmap prints a square matrix as an ASCII heatmap: light cells =
// small distances (similar clients), dark = large, matching the paper's
// Fig. 1 convention (lighter color ⇒ more similar models).
func RenderHeatmap(w io.Writer, title string, m *tensor.Tensor) {
	n := m.Shape[0]
	maxV := m.MaxAbs()
	fmt.Fprintf(w, "%s (n=%d, max=%.3g)\n", title, n, maxV)
	fmt.Fprint(w, "     ")
	for j := 0; j < n; j++ {
		fmt.Fprintf(w, "%2d ", j+1)
	}
	fmt.Fprintln(w)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%3d  ", i+1)
		for j := 0; j < n; j++ {
			v := 0.0
			if maxV > 0 {
				v = m.At(i, j) / maxV
			}
			idx := int(v * float64(len(heatChars)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(heatChars) {
				idx = len(heatChars) - 1
			}
			ch := heatChars[idx]
			fmt.Fprintf(w, "%c%c ", ch, ch)
		}
		fmt.Fprintln(w)
	}
}

// BlockScore measures how block-diagonal a distance matrix is with respect
// to ground-truth groups: mean inter-group distance divided by mean
// intra-group distance. Values ≫ 1 mean clean cluster structure (the
// paper's Fig. 1(d)); ≈ 1 means no structure (Fig. 1(a)).
func BlockScore(m *tensor.Tensor, truth []int) float64 {
	n := m.Shape[0]
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if truth[i] == truth[j] {
				intra += m.At(i, j)
				nIntra++
			} else {
				inter += m.At(i, j)
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 || intra == 0 {
		return 0
	}
	return (inter / float64(nInter)) / (intra / float64(nIntra))
}

// WriteCSV writes the header and rows as comma-separated values. Cells
// containing commas or quotes are quoted.
func (t *Table) WriteCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeLine(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := writeLine(r); err != nil {
			return err
		}
	}
	return nil
}
