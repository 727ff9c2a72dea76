package classify

import (
	"errors"
	"math/rand"
	"testing"

	"roadside/internal/flow"
	"roadside/internal/graph"
)

// fanFlows builds flows so that node volumes are strictly decreasing in
// node ID: node v is visited by flows 0..(n-1-v) of unit volume... simpler:
// node i appears in paths of volume proportional to rank.
func fanFlows(t *testing.T, n int) *flow.Set {
	t.Helper()
	// Flow i runs i -> i+1 with volume (n - i), so node 0 has the largest
	// passing volume and volumes strictly decrease with ID.
	flows := make([]flow.Flow, 0, n-1)
	for i := 0; i < n-1; i++ {
		f, err := flow.New("", []graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)},
			float64(2*(n-i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	s, err := flow.NewSet(flows)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClassifyQuantiles(t *testing.T) {
	const n = 20
	fs := fanFlows(t, n)
	c, err := Classify(fs, n, Options{CenterFrac: 0.1, CityFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Nodes(Center)); got != 2 {
		t.Errorf("center count = %d, want 2", got)
	}
	if got := len(c.Nodes(City)); got != 6 {
		t.Errorf("city count = %d, want 6", got)
	}
	if got := len(c.Nodes(Suburb)); got != 12 {
		t.Errorf("suburb count = %d, want 12", got)
	}
	// Center nodes carry more volume than any city node, which carry more
	// than any suburb node.
	minVol := func(cl Class) float64 {
		m := 1e18
		for _, v := range c.Nodes(cl) {
			if vol := fs.NodeVolume(v); vol < m {
				m = vol
			}
		}
		return m
	}
	maxVol := func(cl Class) float64 {
		m := -1.0
		for _, v := range c.Nodes(cl) {
			if vol := fs.NodeVolume(v); vol > m {
				m = vol
			}
		}
		return m
	}
	if minVol(Center) < maxVol(City) || minVol(City) < maxVol(Suburb) {
		t.Error("strata not ordered by volume")
	}
	// Of agrees with Nodes.
	for _, cl := range []Class{Center, City, Suburb} {
		for _, v := range c.Nodes(cl) {
			if c.Of(v) != cl {
				t.Errorf("node %d: Of=%v, in Nodes(%v)", v, c.Of(v), cl)
			}
		}
	}
}

func TestClassifyDefaults(t *testing.T) {
	fs := fanFlows(t, 30)
	c, err := Classify(fs, 30, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(c.Nodes(Center)) + len(c.Nodes(City)) + len(c.Nodes(Suburb))
	if total != 30 {
		t.Errorf("classified %d of 30", total)
	}
}

func TestClassifyErrors(t *testing.T) {
	fs := fanFlows(t, 10)
	if _, err := Classify(fs, 0, Options{}); !errors.Is(err, ErrNoNodes) {
		t.Errorf("no nodes: %v", err)
	}
	if _, err := Classify(fs, 10, Options{CenterFrac: 0.6, CityFrac: 0.6}); !errors.Is(err, ErrBadFraction) {
		t.Errorf("bad fractions: %v", err)
	}
	if _, err := Classify(fs, 10, Options{CenterFrac: -0.1, CityFrac: 0.3}); !errors.Is(err, ErrBadFraction) {
		t.Errorf("negative fraction: %v", err)
	}
}

func TestSample(t *testing.T) {
	fs := fanFlows(t, 20)
	c, err := Classify(fs, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[graph.NodeID]bool{}
	for i := 0; i < 100; i++ {
		v, err := c.Sample(City, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.Of(v) != City {
			t.Fatalf("sampled %d of class %v", v, c.Of(v))
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Error("sampling not spread over the class")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Center: "center", City: "city", Suburb: "suburb"} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
	if Class(9).String() != "class(9)" {
		t.Error("unknown class string")
	}
}
