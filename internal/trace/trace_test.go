package trace

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.Note("a footnote")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "beta", "2.5", "note: a footnote"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowTooWidePanics(t *testing.T) {
	tb := NewTable("x", "only")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("a", "b")
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("only")
	var buf strings.Builder
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRenderCSVQuoting(t *testing.T) {
	tb := NewTable("", "k", "v")
	tb.AddRow(`with,comma`, `with"quote`)
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"with,comma"`) {
		t.Fatalf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Fatalf("quote cell not escaped: %s", out)
	}
}

func TestAddRowfFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRowf(3.14159265)
	if tb.Rows[0][0] != "3.142" {
		t.Fatalf("float formatting: %q", tb.Rows[0][0])
	}
}
