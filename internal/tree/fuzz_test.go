package tree

import (
	"math/rand"
	"testing"
)

// FuzzFromParents checks that FromParents either rejects its input or
// produces a tree that survives validate and round-trips through
// Encode/Decode — no panics, no silent corruption — and whose post-order
// intervals, IsAncestor and NextHop match their references.
func FuzzFromParents(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 1, 1, 2})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		parents := make([]int32, len(raw)+1)
		parents[0] = -1
		for i, b := range raw {
			parents[i+1] = int32(b)
		}
		tr, err := FromParents(parents)
		if err != nil {
			return
		}
		if err := validate(tr); err != nil {
			t.Fatalf("accepted invalid tree: %v", err)
		}
		enc := Encode(tr)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if Encode(dec) != enc {
			t.Fatal("encode/decode not idempotent")
		}
		checkRanks(t, tr, rand.New(rand.NewSource(1)), 400)
	})
}

// FuzzDecode checks that Decode never panics and never accepts input that
// fails validation.
func FuzzDecode(f *testing.F) {
	f.Add("-1 0 0 1")
	f.Add("")
	f.Add("-1")
	f.Add("-1 5")
	f.Add("x y z")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := Decode(s)
		if err != nil {
			return
		}
		if err := validate(tr); err != nil {
			t.Fatalf("Decode(%q) produced invalid tree: %v", s, err)
		}
	})
}
