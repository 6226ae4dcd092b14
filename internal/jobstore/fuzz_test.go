package jobstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJobstoreReplay feeds arbitrary bytes as an existing job's WAL.
// Replay must never panic; whenever it accepts r records, an Append through
// a fresh handle followed by Replay must return those r records, byte for
// byte, and then the new one. The seed corpus in testdata holds a clean
// WAL, both torn-tail shapes, a corrupt middle line and an empty file.
func FuzzJobstoreReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := s.OpenOrCreate("sweep", []byte(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", j.ID(), "wal.jsonl"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := j.Replay()
		if err != nil {
			return
		}
		next := rec{T: "point", I: len(recs)}
		if err := j.Append(next); err != nil {
			t.Fatalf("append after a WAL Replay accepts: %v", err)
		}
		after, err := j.Replay()
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		want, err := json.Marshal(next)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(recs)+1 || !bytes.Equal(after[len(recs)], want) {
			t.Fatalf("replayed %q after appending %s to a WAL of %d records", after, want, len(recs))
		}
		for i, r := range recs {
			if !bytes.Equal(after[i], r) {
				t.Fatalf("record %d changed from %s to %s", i, r, after[i])
			}
		}
	})
}
