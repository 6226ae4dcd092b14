// Package jobstore is the persistent, crash-safe job store behind resumable
// runs (DESIGN.md S30): every long-lived unit of work — a dsweep
// coordinator run, a bfdnd sweep job, a single long exploration — is keyed
// by the content hash of its plan and journaled to disk, so a crashed
// process can be restarted and pick up exactly where the journal ends.
//
// Per job the store keeps three artifacts under dir/jobs/<id>/:
//
//   - job.json — the immutable manifest: the job kind and the canonical
//     plan bytes the ID was hashed from, written atomically at creation.
//   - wal.jsonl — an append-only JSONL write-ahead log of caller-defined
//     records (completed sweep points, merged shards, a final report), each
//     fsynced before the caller proceeds. Replay tolerates a torn final
//     line — the signature of a crash mid-append — by discarding it, and
//     the first append through a new handle cuts it off the file.
//   - snapshot.bin — the latest mid-run checkpoint (a snap-encoded
//     sim.World + algorithm state), replaced atomically via
//     write-tmp/fsync/rename so a crash never leaves a half snapshot.
//
// Content addressing is the resume mechanism: the job ID is the first 16
// hex digits of SHA-256 over kind and plan, so resubmitting the same plan
// IS resuming the same job — no separate job-handle bookkeeping, and two
// identical plans can never fork into divergent journals. Because every
// run is deterministic given its plan (the per-point seed derivation of
// DESIGN.md S23 and the byte-identity contract the paper's Claim 2
// machinery relies on), replayed records and freshly computed ones agree
// byte for byte, which is what lets a resumed stream remain byte-identical
// to an uninterrupted one.
package jobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// PlanID derives the content-addressed job ID: the first 16 hex digits of
// SHA-256 over the kind and the canonical plan bytes. Identical plans map
// to identical IDs wherever they are submitted.
func PlanID(kind string, plan []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'\n'})
	h.Write(plan)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Store is a directory of jobs. All methods are safe for concurrent use;
// per-job writes are additionally serialized by the job's own lock.
type Store struct {
	dir string

	mu   sync.Mutex
	open map[string]*Job

	// onAppend/onSnapshot, when set, fire after every durable WAL append
	// and snapshot replacement — the hooks bfdnd uses to drive its
	// bfdnd_jobstore_* counters without the store importing the metrics
	// layer.
	onAppend   func()
	onSnapshot func()
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("jobstore: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: open %s: %w", dir, err)
	}
	return &Store{dir: dir, open: map[string]*Job{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetHooks installs the durability observers (nil disables one). Appends
// and snapshots taken before SetHooks are not replayed into the hooks.
func (s *Store) SetHooks(onAppend, onSnapshot func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onAppend, s.onSnapshot = onAppend, onSnapshot
}

func (s *Store) hooks() (func(), func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.onAppend, s.onSnapshot
}

// manifest is the job.json shape. Plan is stored verbatim so a resume can
// re-drive the exact bytes the ID was hashed from.
type manifest struct {
	Kind string          `json:"kind"`
	Plan json.RawMessage `json:"plan"`
}

// Job is one journaled unit of work.
type Job struct {
	store *Store
	id    string
	kind  string
	plan  []byte
	dir   string

	mu  sync.Mutex
	wal *os.File
}

// Info is one row of Store.Jobs: the job's identity and journal state.
// Error is set, and Records is 0, when the job's WAL does not replay.
type Info struct {
	ID      string `json:"job"`
	Kind    string `json:"kind"`
	Done    bool   `json:"done"`
	Records int    `json:"records"`
	Error   string `json:"error,omitempty"`
}

// OpenOrCreate returns the job for (kind, plan), creating it if this is the
// first submission. existed reports whether the job was already on disk —
// the signal that the caller is resuming, not starting.
func (s *Store) OpenOrCreate(kind string, plan []byte) (*Job, bool, error) {
	id := PlanID(kind, plan)
	s.mu.Lock()
	if j, ok := s.open[id]; ok {
		s.mu.Unlock()
		return j, true, nil
	}
	s.mu.Unlock()

	dir := filepath.Join(s.dir, "jobs", id)
	if _, err := os.Stat(filepath.Join(dir, "job.json")); err == nil {
		j, err := s.load(id)
		return j, true, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("jobstore: create job %s: %w", id, err)
	}
	m, err := json.Marshal(manifest{Kind: kind, Plan: plan})
	if err != nil {
		return nil, false, fmt.Errorf("jobstore: marshal manifest for %s: %w", id, err)
	}
	if err := atomicWrite(filepath.Join(dir, "job.json"), m); err != nil {
		return nil, false, err
	}
	j := s.intern(&Job{store: s, id: id, kind: kind, plan: plan, dir: dir})
	return j, false, nil
}

// Get returns the job with the given ID, or an error if no such job exists.
func (s *Store) Get(id string) (*Job, error) {
	s.mu.Lock()
	if j, ok := s.open[id]; ok {
		s.mu.Unlock()
		return j, nil
	}
	s.mu.Unlock()
	return s.load(id)
}

func (s *Store) load(id string) (*Job, error) {
	if filepath.Base(id) != id || id == "" {
		return nil, fmt.Errorf("jobstore: malformed job ID %q", id)
	}
	dir := filepath.Join(s.dir, "jobs", id)
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return nil, fmt.Errorf("jobstore: unknown job %s: %w", id, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("jobstore: manifest of job %s: %w", id, err)
	}
	return s.intern(&Job{store: s, id: id, kind: m.Kind, plan: m.Plan, dir: dir}), nil
}

// intern deduplicates job handles so concurrent opens share one WAL handle
// and lock; the first instance wins.
func (s *Store) intern(j *Job) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.open[j.id]; ok {
		return cur
	}
	s.open[j.id] = j
	return j
}

// Jobs lists every job on disk, sorted by ID. A job whose WAL does not
// replay is listed too, with the replay error in its row, so one corrupt
// journal hides no other job.
func (s *Store) Jobs() ([]Info, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("jobstore: list jobs: %w", err)
	}
	infos := make([]Info, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		j, err := s.Get(e.Name())
		if err != nil {
			continue // a half-created job directory from a crash mid-create
		}
		info := Info{ID: j.id, Kind: j.kind, Done: j.IsDone()}
		if recs, err := j.Replay(); err != nil {
			info.Error = err.Error()
		} else {
			info.Records = len(recs)
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].ID < infos[b].ID })
	return infos, nil
}

// ID returns the content-addressed job ID.
func (j *Job) ID() string { return j.id }

// Kind returns the job kind recorded at creation.
func (j *Job) Kind() string { return j.kind }

// Plan returns the canonical plan bytes recorded at creation.
func (j *Job) Plan() []byte { return j.plan }

// Append marshals rec and durably appends it to the WAL (one JSONL line,
// fsynced before returning). The first append through a handle first cuts
// a torn final line off the WAL, so that the record starts a line of its
// own.
func (j *Job) Append(rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: marshal WAL record for %s: %w", j.id, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		f, err := os.OpenFile(filepath.Join(j.dir, "wal.jsonl"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("jobstore: open WAL for %s: %w", j.id, err)
		}
		if err := cutTornTail(f); err != nil {
			f.Close()
			return fmt.Errorf("jobstore: cut torn WAL tail for %s: %w", j.id, err)
		}
		j.wal = f
	}
	if _, err := j.wal.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("jobstore: append WAL for %s: %w", j.id, err)
	}
	if err := j.wal.Sync(); err != nil {
		return fmt.Errorf("jobstore: sync WAL for %s: %w", j.id, err)
	}
	if onAppend, _ := j.store.hooks(); onAppend != nil {
		onAppend()
	}
	return nil
}

// Replay returns every complete WAL record in append order. A torn final
// line — no trailing newline, or bytes that do not parse — is discarded:
// that is what a crash mid-append leaves behind, and the record it was
// journaling will be recomputed (deterministically) by the resumed run.
// A malformed line anywhere else is corruption and an error.
func (j *Job) Replay() ([]json.RawMessage, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(j.dir, "wal.jsonl"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobstore: read WAL for %s: %w", j.id, err)
	}
	var recs []json.RawMessage
	for len(data) > 0 {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // torn tail: an append that never finished
		}
		line := data[:nl]
		data = data[nl+1:]
		if !json.Valid(line) {
			if len(data) == 0 {
				break // torn tail that happens to end in '\n' garbage
			}
			return nil, fmt.Errorf("jobstore: corrupt WAL record %d in job %s", len(recs), j.id)
		}
		recs = append(recs, json.RawMessage(append([]byte(nil), line...)))
	}
	return recs, nil
}

// cutTornTail truncates the WAL to the records Replay accepts when its
// final line is torn: unterminated, or terminated but not valid JSON. It
// reads the file from the end, never more than its last two lines.
func cutTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	size := fi.Size()
	last, err := lastNewline(f, size)
	if err != nil {
		return err
	}
	keep := last + 1 // drops an unterminated final line
	if last == size-1 {
		// A terminated final line is torn only when it is not JSON.
		prev, err := lastNewline(f, last)
		if err != nil {
			return err
		}
		line := make([]byte, last-prev-1)
		if _, err := f.ReadAt(line, prev+1); err != nil {
			return err
		}
		if json.Valid(line) {
			return nil
		}
		keep = prev + 1
	}
	if err := f.Truncate(keep); err != nil {
		return err
	}
	return f.Sync()
}

// lastNewline returns the offset of the last '\n' before offset end in f,
// or -1 when there is none.
func lastNewline(f *os.File, end int64) (int64, error) {
	var buf [4096]byte
	for end > 0 {
		n := min(end, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return end - n + int64(i), nil
		}
		end -= n
	}
	return -1, nil
}

// SaveSnapshot atomically replaces the job's checkpoint with data
// (write-tmp, fsync, rename): a crash at any instant leaves either the old
// snapshot or the new one, never a mixture.
func (j *Job) SaveSnapshot(data []byte) error {
	j.mu.Lock()
	err := atomicWrite(filepath.Join(j.dir, "snapshot.bin"), data)
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if _, onSnapshot := j.store.hooks(); onSnapshot != nil {
		onSnapshot()
	}
	return nil
}

// LoadSnapshot returns the latest checkpoint and whether one exists.
func (j *Job) LoadSnapshot() ([]byte, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(j.dir, "snapshot.bin"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("jobstore: read snapshot for %s: %w", j.id, err)
	}
	return data, true, nil
}

// MarkDone durably records that the job ran to completion; further resumes
// replay the journal without recomputing anything.
func (j *Job) MarkDone() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return atomicWrite(filepath.Join(j.dir, "done"), []byte("done\n"))
}

// IsDone reports whether MarkDone has been recorded.
func (j *Job) IsDone() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := os.Stat(filepath.Join(j.dir, "done"))
	return err == nil
}

// Close releases the job's WAL handle (appends after Close reopen it).
func (j *Job) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return nil
	}
	err := j.wal.Close()
	j.wal = nil
	return err
}

// atomicWrite replaces path with data via tmp/fsync/rename, then fsyncs the
// directory so the rename itself is durable.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("jobstore: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobstore: write %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
