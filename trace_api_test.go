package bfdn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"bfdn/internal/tree"
)

func TestExploreTraced(t *testing.T) {
	tr, err := GenerateTree(FamilyComb, 30, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, trc, err := ExploreTraced(tr, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored {
		t.Fatal("incomplete")
	}
	if trc.Frames() < rep.Rounds {
		t.Errorf("frames = %d, rounds = %d", trc.Frames(), rep.Rounds)
	}
	// First frame: only the root explored; everyone at depth 0.
	if got := trc.FrameExplored(0); got != 1 {
		t.Errorf("frame 0 explored = %d", got)
	}
	for _, d := range trc.RobotDepths(0) {
		if d != 0 {
			t.Error("frame 0 robot below root")
		}
	}
	// Last frame: everything explored.
	if got := trc.FrameExplored(trc.Frames() - 1); got != tr.N() {
		t.Errorf("last frame explored = %d, want %d", got, tr.N())
	}
	out := trc.RenderFrame(0)
	if !strings.Contains(out, "*0") || !strings.Contains(out, ".1") {
		t.Errorf("frame 0 render wrong:\n%s", out)
	}
	if s := trc.ProgressSparkline(30); len([]rune(s)) != 30 {
		t.Errorf("sparkline width = %d", len([]rune(s)))
	}
}

func TestExploreTracedEverySampling(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 300, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, all, err := ExploreTraced(tr, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, sampled, err := ExploreTraced(tr, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Frames() >= all.Frames() {
		t.Errorf("sampling did not reduce frames: %d vs %d", sampled.Frames(), all.Frames())
	}
}

func TestExploreTracedAllAlgorithms(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 200, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{BFDN, BFDNRecursive, CTE, DFS, Levelwise} {
		rep, trc, err := ExploreTraced(tr, 4, 5, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if !rep.FullyExplored || trc.Frames() == 0 {
			t.Errorf("alg %d: incomplete or empty trace", alg)
		}
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithAlgorithm(Algorithm(77))); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithBreakdowns(BernoulliSchedule(0.5, 4, 1))); err == nil {
		t.Error("tracing with breakdowns accepted")
	}
}

func TestExploreLevelwiseAlgorithm(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 500, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := 64 // ≥ n/D: the O(D²) regime
	rep, err := Explore(tr, k, WithAlgorithm(Levelwise))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored || !rep.AllAtRoot {
		t.Fatal("incomplete")
	}
	if float64(rep.Rounds) > rep.Bound {
		t.Errorf("rounds %d exceed level-wise bound %.1f", rep.Rounds, rep.Bound)
	}
}

// TestExploreTracedHonorsProgressAndCheckpoint: ExploreTraced streams
// progress to a WithProgress observer exactly as Explore does, and refuses
// WithCheckpoint instead of silently running without a journal.
func TestExploreTracedHonorsProgressAndCheckpoint(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 300, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []Progress
	if _, err := Explore(tr, 4, WithProgress(func(p Progress) { want = append(want, p) })); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithProgress(func(p Progress) { got = append(got, p) })); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("ExploreTraced reported %d progress updates, Explore %d; they must match", len(got), len(want))
	}
	js, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithCheckpoint(js, 10)); err == nil {
		t.Error("ExploreTraced accepted WithCheckpoint")
	}
	if jobs, err := js.Jobs(); err != nil || len(jobs) != 0 {
		t.Errorf("store holds %d jobs after a refused traced run (err %v), want 0", len(jobs), err)
	}
}

// TestGoldenTraceFrames pins every frame ExploreTraced records: a SHA-256
// per algorithm over each frame's round, explored count, robot positions
// and the explored marker of every node at that round, on three tree
// families at k ∈ {1, 4, 16}, recording every round and every 7th.
func TestGoldenTraceFrames(t *testing.T) {
	want := map[Algorithm]string{
		BFDN:          "0d5c1a083efaa6bc683a4b915c26108d52c5710493abe6bb65c8e87ac77cb4d8",
		BFDNRecursive: "ab67b2cbc2cfa3a9b8e5f4b3ecde72d1cf9d87be8f01190a323642452255b6a5",
		CTE:           "d5481db5d76dfcec85348212418c6c9c9dc47f067d87121263459386c177653d",
		DFS:           "38ab3db9c4c5142cebbd28dcada83751af5feddb18ac99abbe99a44dc82da169",
		Levelwise:     "57a66669734516311cc5d43420b84d8a02a58cffd57ed707ebdc0f7d6f09b51c",
		TreeMining:    "28af4a3d763713c6ce2616ad53a205a4c84c8e210662b8add1f6ad7386e70d82",
		Potential:     "38e611b589c96d6a254d5ffa19d6da79097d20022bb62733af44b52d73d37a8d",
	}
	var trees []*Tree
	for i, f := range []Family{FamilyRandom, FamilyComb, FamilyBinary} {
		tr, err := GenerateTree(f, 300, 12, int64(31+i))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	for _, alg := range Algorithms() {
		h := sha256.New()
		var buf []byte
		for _, tr := range trees {
			for _, k := range []int{1, 4, 16} {
				for _, every := range []int{1, 7} {
					_, trc, err := ExploreTraced(tr, k, every, WithAlgorithm(alg))
					if err != nil {
						t.Fatalf("%v %s k=%d every=%d: %v", alg, tr, k, every, err)
					}
					for _, f := range trc.rec.Frames {
						buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(f.Round))
						buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Explored))
						for _, p := range f.Positions {
							buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
						}
						for v := 0; v < tr.N(); v++ {
							if trc.rec.ExploredBy(tree.NodeID(v), f.Round) {
								buf = append(buf, 1)
							} else {
								buf = append(buf, 0)
							}
						}
						h.Write(buf)
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[alg] {
			t.Errorf("%v: frame digest = %s, want %s", alg, got, want[alg])
		}
	}
}
