package topoparse

import (
	"strings"
	"testing"
)

func TestBuildAllNames(t *testing.T) {
	for _, name := range Names() {
		g, err := Build(name, 24, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() < 10 { // petersen is the smallest fixed family
			t.Fatalf("%s: suspiciously small n=%d", name, g.N())
		}
		if !g.IsConnected() {
			t.Fatalf("%s: disconnected", name)
		}
	}
}

func TestBuildRoundsUp(t *testing.T) {
	g, err := Build("hypercube", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 32 {
		t.Fatalf("hypercube(20) rounded to n=%d, want 32", g.N())
	}
	g, err = Build("torus", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Fatalf("torus(10) rounded to n=%d, want 16", g.N())
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"nope", 10},
		{"cycle", 2},
		{"star", 1},
		{"path", 0},
		{"random-regular", 3},
		{"barbell", 3},
		{"lollipop", 2},
		{"smallworld", 5},
		// Rounded up, these families no longer fit in an int.
		{"grid", 1<<62 + 1},
		{"torus", 1<<62 + 1},
		{"torus3d", 1<<62 + 1},
		{"hypercube", 1<<62 + 1},
		{"debruijn", 1<<62 + 1},
		{"tree", 1<<62 + 1},
		{"ccc", 1<<62 + 1},
		{"butterfly", 1<<62 + 1},
	}
	for _, c := range cases {
		if _, err := Build(c.name, c.n, 1); err == nil {
			t.Fatalf("Build(%q, %d): expected error", c.name, c.n)
		}
	}
}

func TestBuildRandomRegularDeterministic(t *testing.T) {
	a, err := Build("random-regular", 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("random-regular", 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatal("same seed must reproduce the same graph")
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			t.Fatal("same seed must reproduce the same edges")
		}
	}
}

func TestErrorMentionsAcceptedNames(t *testing.T) {
	_, err := Build("bogus", 10, 1)
	if err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("error should list accepted names: %v", err)
	}
}

// TestDescriptionsCoverEveryName: the -list surface must describe every
// accepted topology, under exactly its canonical name — adding a family to
// Names/Build without a Descriptions row fails here, not by silently
// vanishing from lbbench -list.
func TestDescriptionsCoverEveryName(t *testing.T) {
	desc := map[string]bool{}
	for _, d := range Descriptions() {
		desc[d[0]] = true
	}
	for _, name := range Names() {
		if !desc[name] {
			t.Errorf("no description for topology %q", name)
		}
	}
	if len(Descriptions()) != len(Names()) {
		t.Errorf("%d descriptions for %d names", len(Descriptions()), len(Names()))
	}
}
