package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenGraphs is the fixed graph set the explorer's fingerprint is taken
// over: full grids, random obstacle grids and random connected graphs.
func goldenGraphs(t *testing.T) []*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(2311))
	var gs []*Graph
	for _, wh := range [][2]int{{1, 30}, {8, 8}, {20, 12}} {
		gd, err := NewGrid(wh[0], wh[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, gd.G)
	}
	for _, p := range [][4]int{{16, 16, 6, 4}, {24, 18, 10, 5}, {30, 30, 20, 6}} {
		gd, err := RandomGrid(p[0], p[1], p[2], p[3], rng)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, gd.G)
	}
	for _, nm := range [][2]int{{60, 120}, {200, 500}, {400, 420}} {
		g, err := RandomConnected(nm[0], nm[1], rng)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestGoldenStepFingerprint pins the graph explorer's exact behaviour: a
// SHA-256 over every robot's position and anchor after every step, on
// every golden graph at k ∈ {1, 2, 3, 8, 16, 64}.
func TestGoldenStepFingerprint(t *testing.T) {
	const want = "160e4c407ffda55ddac38ea89eaebb328a38fc8c6f66e2229ccb43de9fc624a4"
	all := sha256.New()
	for gi, g := range goldenGraphs(t) {
		for _, k := range []int{1, 2, 3, 8, 16, 64} {
			e, err := NewExplorer(g, k)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf []byte
			for {
				moved, err := e.step()
				if err != nil {
					t.Fatalf("graph %d k=%d: %v", gi, k, err)
				}
				if !moved {
					break
				}
				buf = buf[:0]
				for _, r := range e.robots {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(r.pos))
					buf = binary.LittleEndian.AppendUint32(buf, uint32(r.anchor))
				}
				h.Write(buf)
			}
			if res := e.result(); !res.AllEdgesVisited || !res.AllAtOrigin {
				t.Fatalf("graph %d k=%d: bad terminal state", gi, k)
			}
			sum := h.Sum(nil)
			t.Logf("graph %d (n=%d m=%d) k=%d: rounds=%d %x", gi, g.N(), g.M(), k, e.metrics.Rounds, sum)
			all.Write(sum)
		}
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != want {
		t.Errorf("step fingerprint = %s, want %s (run with -v for per-case digests)", got, want)
	}
}
