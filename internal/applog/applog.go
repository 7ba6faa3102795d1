// Package applog is the repository's one append-only JSONL log: every
// durable line-per-record file — the run journal, the soak ledger and the
// ops resource ledger — is written and read through it, so they share one
// fsync policy, one torn-tail repair and one reader rule.
//
// A record is one line of JSON. Append writes the line and its newline in
// one write and fsyncs it before returning, so an acknowledged record
// survives a crash and a crash mid-append damages at most the final line.
// Open repairs that damage before appending again; ReadAll drops a torn
// final line and rejects anything malformed before it.
package applog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// MaxLine is the longest line the reader accepts. Series-bearing journal
// cell records are the largest lines any log carries.
const MaxLine = 64 << 20

// Log is an append-only JSONL file. It is safe for concurrent use; each
// Append lands as one whole line.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// Create creates (or truncates) the log at path.
func Create(path string) (*Log, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// Open opens the log at path for appending, creating it if absent, after
// repairing a torn tail. The repair is keyed on the file's last byte: a
// file that does not end in a newline was cut mid-append. If the bytes
// after the last newline are a complete JSON value (only the newline was
// lost) the newline is restored; otherwise the partial line is cut off.
// Either way the next Append starts on a fresh line instead of merging
// into the torn one, and the file holds no partial line mid-file.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := repairTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("applog: repairing tail of %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

func repairTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	if end == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, end-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	// Walk back to the start of the final line.
	start := end
	chunk := make([]byte, 64<<10)
	for start > 0 {
		n := min(int64(len(chunk)), start)
		if _, err := f.ReadAt(chunk[:n], start-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(chunk[:n], '\n'); i >= 0 {
			start = start - n + int64(i) + 1
			break
		}
		start -= n
	}
	tail := make([]byte, end-start)
	if _, err := f.ReadAt(tail, start); err != nil {
		return err
	}
	if json.Valid(tail) {
		_, err = f.Write([]byte{'\n'})
	} else {
		err = f.Truncate(start)
	}
	if err != nil {
		return err
	}
	return f.Sync()
}

// Append durably writes line (which must not contain a newline) plus a
// newline, fsync'd before Append returns. The newline may be written into
// line's spare capacity.
func (l *Log) Append(line []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("applog: append to closed log")
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// AppendJSON marshals v and appends it as one line.
func (l *Log) AppendJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return l.Append(data)
}

// Close syncs and closes the file. Closing twice is harmless.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Lines calls fn on each non-blank line of r in order, stopping at the
// first error fn returns. The slice fn receives is only valid until fn
// returns. Lines are numbered by non-blank position in errors.
func Lines(r io.Reader, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLine)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		n++
		if err := fn(line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", n+1, err)
	}
	return nil
}

// ReadAll decodes every non-blank line of r as a T. A final line that does
// not decode is a torn append and is dropped; a malformed line anywhere
// before it is an error ("line N: ...", N counting non-blank lines).
func ReadAll[T any](r io.Reader) ([]T, error) {
	var (
		out []T
		bad error // the latest line failed to decode; fatal unless it is the last
		n   int
	)
	err := Lines(r, func(line []byte) error {
		n++
		if bad != nil {
			return bad
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			bad = fmt.Errorf("line %d: %w", n, err)
			return nil
		}
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
