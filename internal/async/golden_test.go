package async

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// goldenTrees is the fixed tree set the golden fingerprints are taken over:
// every generator family, plus random trees wide and deep enough that slots
// and anchors cross many subtree boundaries.
func goldenTrees() []*tree.Tree {
	rng := rand.New(rand.NewSource(2311))
	return []*tree.Tree{
		tree.Path(40), tree.Star(30), tree.KAry(2, 6), tree.KAry(4, 3),
		tree.Spider(6, 8), tree.Comb(10, 4), tree.Caterpillar(12, 3),
		tree.Broom(12, 8), tree.UnevenPaths(8, 24),
		tree.Random(400, 12, rng), tree.RandomBinary(250, rng),
		tree.Random(1500, 30, rng),
	}
}

// decideRecorder wraps an algorithm and hashes every decision it makes:
// the robot, its position, the clock and the move.
type decideRecorder struct {
	Algorithm
	h   hash.Hash
	buf []byte
}

func (r *decideRecorder) Decide(v View, i int) (Move, error) {
	mv, err := r.Algorithm.Decide(v, i)
	if err != nil {
		return mv, err
	}
	b := r.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(i))
	b = binary.LittleEndian.AppendUint32(b, uint32(v.Pos(i)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.e.now))
	b = append(b, byte(mv.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(mv.To))
	r.h.Write(b)
	r.buf = b
	return mv, nil
}

// TestGoldenDecideFingerprints pins both asynchronous strategies' exact
// behaviour under every latency model: per (algorithm, latency), a SHA-256
// over every Decide on every golden tree at k ∈ {1, 2, 3, 8, 16, 64},
// followed by each run's makespan bits, event count and work distribution.
func TestGoldenDecideFingerprints(t *testing.T) {
	want := map[string]string{
		"bfdn/constant":        "93fecd49538732def26549a7f0081175cd93633f837dbff6fbff1dd8689bb221",
		"bfdn/jitter:0.5":      "5be8d58abccf24c91b20ed6175dc0524f17900d43b573405c7cec3db3723b513",
		"bfdn/pareto:1.5":      "a315f5f820d77190fbbe8e3c133a3a7de9342b97ef460568be236db9376f6c73",
		"potential/constant":   "f88319c12aea98d2fed9c3120b9b2e3fe0498e93c825d01264deff2bec328716",
		"potential/jitter:0.5": "71c3986b03235f07cb1c1eccb925fb32ade12641d51fd64fd5a1f80394ef1186",
		"potential/pareto:1.5": "cd65af4aa018e34a33a23423caaf7ef5db4a2f3396fd48cd575b99b9232144a2",
	}
	trees := goldenTrees()
	for _, name := range AlgorithmNames() {
		for _, spec := range []string{"constant", "jitter:0.5", "pareto:1.5"} {
			key := name + "/" + spec
			lat, err := ParseLatency(spec)
			if err != nil {
				t.Fatal(err)
			}
			all := sha256.New()
			for _, tr := range trees {
				for _, k := range []int{1, 2, 3, 8, 16, 64} {
					alg, err := NewNamedAlgorithm(name)
					if err != nil {
						t.Fatal(err)
					}
					rec := &decideRecorder{Algorithm: alg, h: sha256.New()}
					speeds := make([]float64, k)
					for i := range speeds {
						speeds[i] = 1 + float64(i%3)
					}
					e, err := NewEngine(tr, speeds, WithAlgorithm(rec), WithLatency(lat), WithSeed(77))
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run(0)
					if err != nil {
						t.Fatalf("%s %s k=%d: %v", key, tr, k, err)
					}
					if !res.FullyExplored || !res.AllAtRoot {
						t.Fatalf("%s %s k=%d: bad terminal state", key, tr, k)
					}
					b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(res.Makespan))
					b = binary.LittleEndian.AppendUint64(b, uint64(res.Events))
					for _, w := range res.WorkDist {
						b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
					}
					rec.h.Write(b)
					sum := rec.h.Sum(nil)
					t.Logf("%s %s k=%d: events=%d %x", key, tr, k, res.Events, sum)
					all.Write(sum)
				}
			}
			if got := hex.EncodeToString(all.Sum(nil)); got != want[key] {
				t.Errorf("%s: fingerprint = %s, want %s (run with -v for per-case digests)", key, got, want[key])
			}
		}
	}
}
