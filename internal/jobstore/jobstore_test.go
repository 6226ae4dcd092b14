package jobstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type rec struct {
	T string `json:"t"`
	I int    `json:"i"`
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestContentAddressing: identical (kind, plan) pairs map to one job,
// different plans or kinds to different jobs, and resubmission reports the
// job as existing — the property that makes "resubmit = resume" work.
func TestContentAddressing(t *testing.T) {
	s := open(t)
	j1, existed, err := s.OpenOrCreate("sweep", []byte(`{"seed":1}`))
	if err != nil || existed {
		t.Fatalf("first create: existed=%v err=%v", existed, err)
	}
	j2, existed, err := s.OpenOrCreate("sweep", []byte(`{"seed":1}`))
	if err != nil || !existed {
		t.Fatalf("resubmit: existed=%v err=%v", existed, err)
	}
	if j1.ID() != j2.ID() {
		t.Fatalf("same plan, different IDs: %s vs %s", j1.ID(), j2.ID())
	}
	j3, _, err := s.OpenOrCreate("sweep", []byte(`{"seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() == j1.ID() {
		t.Fatal("different plans share an ID")
	}
	j4, _, err := s.OpenOrCreate("explore", []byte(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID() == j1.ID() {
		t.Fatal("different kinds share an ID")
	}
	if len(j1.ID()) != 16 {
		t.Fatalf("ID %q is not 16 hex chars", j1.ID())
	}
}

// TestWALReplay: appended records come back in order, across a fresh Store
// handle (simulating a process restart).
func TestWALReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.OpenOrCreate("sweep", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec{T: "point", I: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Kind() != "sweep" || string(j2.Plan()) != `{}` {
		t.Fatalf("manifest did not survive restart: kind=%q plan=%q", j2.Kind(), j2.Plan())
	}
	recs, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, raw := range recs {
		var r rec
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.I != i {
			t.Fatalf("record %d has i=%d", i, r.I)
		}
	}
}

// TestTornTail: a crash mid-append leaves a final line with no newline (or
// garbage); replay must drop exactly that line and keep the rest.
func TestTornTail(t *testing.T) {
	s := open(t)
	j, _, err := s.OpenOrCreate("sweep", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{T: "point", I: 0}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{T: "point", I: 1}); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(s.Dir(), "jobs", j.ID(), "wal.jsonl")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"point","i":2`); err != nil { // no newline
		t.Fatal(err)
	}
	f.Close()
	recs, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
	}
}

// TestAppendAfterTornTail restarts a store over a WAL whose final line a
// crash tore, with or without its newline: the new handle's appends must
// replay after the records that survived, and the store must still list
// the job.
func TestAppendAfterTornTail(t *testing.T) {
	for name, torn := range map[string]string{
		"unterminated": `{"t":"point","i":2`,
		"newline":      "{\"t\":\"point\",\"i\":2\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			j, _, err := s.OpenOrCreate("sweep", []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := j.Append(rec{T: "point", I: i}); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()
			f, err := os.OpenFile(filepath.Join(dir, "jobs", j.ID(), "wal.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(torn); err != nil {
				t.Fatal(err)
			}
			f.Close()

			restarted, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			j, _, err = restarted.OpenOrCreate("sweep", []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			for i := 2; i < 4; i++ {
				if err := j.Append(rec{T: "point", I: i}); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := j.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 4 {
				t.Fatalf("replayed %d records, want 4: %s", len(recs), recs)
			}
			for i, raw := range recs {
				var r rec
				if err := json.Unmarshal(raw, &r); err != nil || r.I != i {
					t.Fatalf("record %d = %s (%v), want i=%d", i, raw, err, i)
				}
			}
			infos, err := restarted.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || infos[0].Records != 4 {
				t.Fatalf("Jobs = %+v, want one job with 4 records", infos)
			}
		})
	}
}

// TestCorruptMiddle: a malformed record with records after it is real
// corruption, not a torn tail, and must fail loudly.
func TestCorruptMiddle(t *testing.T) {
	s := open(t)
	j, _, err := s.OpenOrCreate("sweep", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(s.Dir(), "jobs", j.ID(), "wal.jsonl")
	if err := os.WriteFile(wal, []byte("{\"t\":\"point\"}\ngarbage\n{\"t\":\"point\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Replay(); err == nil {
		t.Fatal("expected error for corruption before the tail")
	}
}

// TestJobsListsCorruptJob: a job whose WAL is corrupt before its tail is
// listed with the replay error in its own row, beside the healthy job, so
// one bad journal does not empty the listing.
func TestJobsListsCorruptJob(t *testing.T) {
	s := open(t)
	good, _, err := s.OpenOrCreate("sweep", []byte(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Append(rec{T: "point", I: 0}); err != nil {
		t.Fatal(err)
	}
	bad, _, err := s.OpenOrCreate("asyncsweep", []byte(`{"a":2}`))
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(s.Dir(), "jobs", bad.ID(), "wal.jsonl")
	if err := os.WriteFile(wal, []byte("{\"t\":\"point\"}\ngarbage\n{\"t\":\"point\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err := s.Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	want := map[string]Info{
		good.ID(): {ID: good.ID(), Kind: "sweep", Records: 1},
		bad.ID():  {ID: bad.ID(), Kind: "asyncsweep", Error: "jobstore: corrupt WAL record 1 in job " + bad.ID()},
	}
	if len(infos) != len(want) {
		t.Fatalf("Jobs = %+v, want %d rows", infos, len(want))
	}
	for _, in := range infos {
		if in != want[in.ID] {
			t.Errorf("row %+v, want %+v", in, want[in.ID])
		}
	}
}

// TestSnapshotAtomicReplace: snapshots replace atomically and survive a
// fresh handle; a job without one reports ok=false.
func TestSnapshotAtomicReplace(t *testing.T) {
	s := open(t)
	j, _, err := s.OpenOrCreate("explore", []byte(`{"k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := j.LoadSnapshot(); err != nil || ok {
		t.Fatalf("fresh job has snapshot: ok=%v err=%v", ok, err)
	}
	if err := j.SaveSnapshot([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := j.SaveSnapshot([]byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := j.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	if string(data) != "v2-longer" {
		t.Fatalf("snapshot = %q, want v2-longer", data)
	}
	// No leftover tmp files from the atomic writes.
	entries, err := os.ReadDir(filepath.Join(s.Dir(), "jobs", j.ID()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "job.json" && name != "wal.jsonl" && name != "snapshot.bin" && name != "done" {
			t.Errorf("unexpected file %s in job dir", name)
		}
	}
}

// TestDoneAndListing: MarkDone persists, and Jobs reports every job with
// its record count and done state.
func TestDoneAndListing(t *testing.T) {
	s := open(t)
	j1, _, err := s.OpenOrCreate("sweep", []byte(`{"a":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(rec{T: "point", I: 0}); err != nil {
		t.Fatal(err)
	}
	if err := j1.MarkDone(); err != nil {
		t.Fatal(err)
	}
	if !j1.IsDone() {
		t.Fatal("MarkDone did not stick")
	}
	if _, _, err := s.OpenOrCreate("sweep", []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	infos, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(infos))
	}
	var doneCount, records int
	for _, in := range infos {
		if in.Done {
			doneCount++
		}
		records += in.Records
	}
	if doneCount != 1 || records != 1 {
		t.Fatalf("listing: done=%d records=%d, want 1/1", doneCount, records)
	}
}

// TestHooks: the durability observers fire once per append and snapshot.
func TestHooks(t *testing.T) {
	s := open(t)
	var appends, snaps int
	s.SetHooks(func() { appends++ }, func() { snaps++ })
	j, _, err := s.OpenOrCreate("sweep", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j.Append(rec{})
	j.Append(rec{})
	j.SaveSnapshot([]byte("x"))
	if appends != 2 || snaps != 1 {
		t.Fatalf("hooks fired appends=%d snaps=%d, want 2/1", appends, snaps)
	}
}

// TestGetUnknownAndMalformedID: lookups that could escape the store
// directory or name nothing must fail cleanly.
func TestGetUnknownAndMalformedID(t *testing.T) {
	s := open(t)
	if _, err := s.Get("0123456789abcdef"); err == nil {
		t.Fatal("expected error for unknown job")
	}
	if _, err := s.Get("../evil"); err == nil {
		t.Fatal("expected error for path-escaping ID")
	}
	if _, err := s.Get(""); err == nil {
		t.Fatal("expected error for empty ID")
	}
}
