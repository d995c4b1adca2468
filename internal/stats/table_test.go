package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "Workload", "Speedup")
	tb.AddRow("OLTP DB2", "1.24")
	tb.AddRow("Web Apache", "1.18")
	out := tb.String()
	if !strings.Contains(out, "Fig. X") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "Workload") || !strings.Contains(out, "Speedup") {
		t.Error("missing headers")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, header, rule, 2 rows
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "OLTP DB2") {
		t.Errorf("row 1 = %q", lines[3])
	}
	// Columns are aligned: "Speedup" column starts at the same offset in
	// header and data rows.
	hIdx := strings.Index(lines[1], "Speedup")
	rIdx := strings.Index(lines[3], "1.24")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableNoTrailingWhitespace(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("x", "y")
	tb.AddRow("longer", "z")
	for _, line := range strings.Split(tb.String(), "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Errorf("line has trailing spaces: %q", line)
		}
	}
}

func TestTableAddRowf(t *testing.T) {
	tb := NewTable("t", "name", "val", "frac")
	tb.AddRowf("w", 42, 0.5)
	out := tb.String()
	if !strings.Contains(out, "42") || !strings.Contains(out, "0.5") {
		t.Errorf("AddRowf output = %q", out)
	}
	if len(tb.rows) != 1 {
		t.Errorf("rows = %d, want 1", len(tb.rows))
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("t", "a")
	tb.AddRow("1", "2", "3") // more cells than headers: kept
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Errorf("extra cells dropped: %q", out)
	}
}

func TestTableEmpty(t *testing.T) {
	tb := NewTable("only title")
	out := tb.String()
	if !strings.Contains(out, "only title") {
		t.Errorf("out = %q", out)
	}
}
