package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"tvarak/internal/applog"
)

// JournalVersion is the version stamped on every journal record. Records
// with a different version are ignored on load (treated like corruption),
// so a journal written by an incompatible build resumes nothing instead of
// resurrecting mismatched results.
const JournalVersion = 1

// JournalFormat is the file-level format version carried by the header
// record NewJournal writes as the file's first line. It lets a resuming
// process (and the fleet's gateway/worker handshake) reject a journal
// written by an incompatible build with a clear error instead of silently
// restoring nothing. Header-less journals written before the header
// existed load fine and report Format 0.
const JournalFormat = 2

// headerKind is the record kind of the file header. Header records carry
// the file format version and the run scope; they are parsed into the
// Journal's metadata rather than the restorable record map.
const headerKind = "journal-header"

// journalHeader is the header record's payload.
type journalHeader struct {
	// Format is the journal file format version (JournalFormat at write
	// time).
	Format int `json:"format"`
	// Scope, when non-empty, names the run the journal belongs to (the
	// CLI's identity plus every option that shapes its units). Opening
	// with a different scope via OpenJournalScope is a hard error.
	Scope string `json:"scope,omitempty"`
}

// Journal is a crash-safe per-run checkpoint log: one JSONL record per
// completed unit of work, each fsync'd before the completion is
// acknowledged, keyed by a stable fingerprint. A run that was interrupted
// — SIGINT, crash, power loss — resumes by reopening the journal: units
// whose fingerprints are already recorded are restored instead of re-run,
// and because every unit is deterministic, the resumed run's output is
// byte-identical to an uninterrupted run.
//
// The format is line-oriented JSON so a torn final write (the crash case)
// damages at most the last line; loading skips unparseable or
// wrong-version lines and counts them (CorruptLines) rather than failing,
// losing only the records on those lines.
//
// A Journal is safe for concurrent use by the parallel runner's workers.
type Journal struct {
	mu       sync.Mutex
	log      *applog.Log
	path     string
	seen     map[journalKey]json.RawMessage
	restored int
	corrupt  int
	appended int
	format   int    // file format from the header record (0 = legacy, no header)
	scope    string // run scope from the header record ("" = unscoped)
}

type journalKey struct{ kind, fp string }

// journalRecord is the wire format: version, record kind (a Plan's Kind —
// "cell" for sweeps, "unit" for fault campaigns, "soak-unit" for the soak
// harness — or the runner's "fail", "hang" and "manifest"), the unit
// fingerprint, and the kind-specific payload.
type journalRecord struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Fp   string          `json:"fp,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// NewJournal creates (or truncates) a journal at path, starting a fresh
// run with no restorable records. The file begins with a header record
// carrying the journal format version (see NewJournalScope to also bind
// the journal to a run scope).
func NewJournal(path string) (*Journal, error) {
	return NewJournalScope(path, "")
}

// NewJournalScope is NewJournal with the run's scope stamped into the
// header record: reopening the journal via OpenJournalScope with a
// different scope fails with a clear error instead of silently restoring
// nothing.
func NewJournalScope(path, scope string) (*Journal, error) {
	log, err := applog.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: creating journal: %w", err)
	}
	j := &Journal{
		log: log, path: path, seen: make(map[journalKey]json.RawMessage),
		format: JournalFormat, scope: scope,
	}
	// The header is appended directly (not via Record) so it stays pure
	// file metadata: it never appears in the restorable record map and
	// never counts toward Appended, mirroring how OpenJournal loads it.
	line, err := EncodeRecord(headerKind, "", journalHeader{Format: JournalFormat, Scope: scope})
	if err == nil {
		err = log.Append(line)
	}
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("harness: writing journal header: %w", err)
	}
	return j, nil
}

// OpenJournal opens an existing journal for resumption: every well-formed
// record already in the file becomes restorable via Lookup, and new
// records append after them. Corrupted or truncated lines (a crash mid-
// write) are skipped and counted, never fatal: the log's reopen repair
// cuts a torn final line, but a journal repaired by an older build can
// still carry one mid-file. The file must exist — use NewJournal to start
// a fresh run.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	j := &Journal{path: path, seen: make(map[journalKey]json.RawMessage)}
	err = applog.Lines(f, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.V != JournalVersion || rec.Kind == "" {
			j.corrupt++
			return nil
		}
		if rec.Kind == headerKind {
			// The header is file metadata, not a restorable record: it
			// feeds the format/scope accessors and the compatibility
			// checks below instead of the record map.
			var h journalHeader
			if err := json.Unmarshal(rec.Data, &h); err != nil {
				j.corrupt++
				return nil
			}
			j.format, j.scope = h.Format, h.Scope
			return nil
		}
		j.seen[journalKey{rec.Kind, rec.Fp}] = append(json.RawMessage(nil), rec.Data...)
		j.restored++
		return nil
	})
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("harness: reading journal: %w", err)
	}
	if j.format > JournalFormat {
		return nil, fmt.Errorf("harness: journal %s is format v%d, this build writes v%d — refusing to resume from a newer build's journal",
			path, j.format, JournalFormat)
	}
	if j.log, err = applog.Open(path); err != nil {
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	return j, nil
}

// OpenJournalScope is OpenJournal plus the scope handshake: a journal
// whose header names a different scope is rejected with an error that says
// what the journal was for, instead of the resume silently restoring
// nothing because every fingerprint misses. Legacy journals with no header
// (format 0) and headers with an empty scope are tolerated — there is
// nothing to check against.
func OpenJournalScope(path, scope string) (*Journal, error) {
	j, err := OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if j.scope != "" && scope != "" && j.scope != scope {
		j.Close()
		return nil, fmt.Errorf("harness: journal %s was written for scope %q, this run is scope %q — use a fresh journal (or matching options) instead of resuming across runs",
			path, j.scope, scope)
	}
	return j, nil
}

// Format reports the journal file's format version from its header record:
// JournalFormat for journals this build wrote, 0 for legacy header-less
// files.
func (j *Journal) Format() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.format
}

// Scope reports the run scope bound into the journal's header record
// ("" when unscoped or legacy).
func (j *Journal) Scope() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.scope
}

// Record durably appends one record: the payload is marshalled, written as
// one line, and fsync'd before Record returns, so an acknowledged record
// survives a crash. It also becomes immediately restorable via Lookup.
func (j *Journal) Record(kind, fp string, payload any) error {
	data, err := marshalPayload(payload)
	if err != nil {
		return err
	}
	return j.RecordRaw(kind, fp, data)
}

// EncodeRecord renders one journal record as its wire line (no trailing
// newline): the same bytes Record appends to the file. The fleet's workers
// stream results to the gateway as exactly these lines, so the network
// wire format and the on-disk checkpoint format are one format.
func EncodeRecord(kind, fp string, payload any) ([]byte, error) {
	data, err := marshalPayload(payload)
	if err != nil {
		return nil, err
	}
	return encodeRaw(kind, fp, data)
}

func marshalPayload(payload any) (json.RawMessage, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("harness: marshalling journal record: %w", err)
	}
	return data, nil
}

func encodeRaw(kind, fp string, data json.RawMessage) ([]byte, error) {
	return json.Marshal(journalRecord{V: JournalVersion, Kind: kind, Fp: fp, Data: data})
}

// DecodeRecord parses one journal wire line into its kind, fingerprint and
// raw payload. Lines with the wrong record version (a different build's
// wire format) are an error — the receiver must not act on records it
// cannot faithfully interpret.
func DecodeRecord(line []byte) (kind, fp string, data json.RawMessage, err error) {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return "", "", nil, fmt.Errorf("harness: parsing journal record: %w", err)
	}
	if rec.V != JournalVersion || rec.Kind == "" {
		return "", "", nil, fmt.Errorf("harness: journal record version v%d (kind %q), this build speaks v%d", rec.V, rec.Kind, JournalVersion)
	}
	return rec.Kind, rec.Fp, rec.Data, nil
}

// RecordRaw durably appends a record whose payload is already marshalled
// (a unit's payload, or a wire line's Data), byte-for-byte. The Runner
// checkpoints payloads with it, so a fleet job's journal holds exactly
// the bytes the gateway deduplicated against.
func (j *Journal) RecordRaw(kind, fp string, data json.RawMessage) error {
	line, err := encodeRaw(kind, fp, data)
	if err != nil {
		return err
	}
	if err := j.log.Append(line); err != nil {
		return fmt.Errorf("harness: appending journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seen[journalKey{kind, fp}] = append(json.RawMessage(nil), data...)
	j.appended++
	return nil
}

// LookupRaw returns the raw payload bytes of the (kind, fingerprint)
// record, or nil when absent.
func (j *Journal) LookupRaw(kind, fp string) json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	data := j.seen[journalKey{kind, fp}]
	if data == nil {
		return nil
	}
	return append(json.RawMessage(nil), data...)
}

// Restored is how many well-formed records were loaded from disk when the
// journal was opened for resumption.
func (j *Journal) Restored() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.restored
}

// CorruptLines is how many unparseable or wrong-version lines were
// skipped on load.
func (j *Journal) CorruptLines() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.corrupt
}

// Appended is how many records this process added.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close syncs and closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// Fingerprint is the cell's stable identity within a scope (the experiment
// id plus run-shaping options): the workload's renamed label, the variant,
// a hash of the full machine configuration and the sampling granularity.
// Identical cells fingerprint identically — which is sound, because
// identical cells are deterministic and produce identical results — and
// any configuration or scale change misses the journal and re-runs, never
// resurrecting a stale result.
func (c Cell) Fingerprint(scope string) string {
	name := c.Make().Name()
	if c.Rename != nil {
		name = c.Rename(name)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|sample=%d|cfg=%+v", scope, name, c.Variant, c.SampleEvery, *c.Config)
	return fmt.Sprintf("%s/%s/%s[%s]#%016x", scope, name, c.Config.Design, c.Variant, h.Sum64())
}

// hangRecord is the payload journaled when the watchdog marks a unit hung:
// a dump of every goroutine's stack at detection time, for post-mortem
// debugging of the stuck workload.
type hangRecord struct {
	Label  string `json:"label"`
	Stacks string `json:"stacks"`
}
