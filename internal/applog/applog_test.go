package applog_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tvarak/internal/applog"
	"tvarak/internal/harness"
	"tvarak/internal/live"
	"tvarak/internal/soak"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readRaw(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := applog.ReadAll[json.RawMessage](f)
	if err != nil {
		t.Fatalf("reading %s: %v", filepath.Base(path), err)
	}
	return got
}

func expectLines(t *testing.T, got []json.RawMessage, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("line %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestTornTailEveryOffset simulates SIGKILL landing at every byte of the
// final record's append, for each log's record encoding: the file is
// truncated at each offset of its last line (including the offset that
// keeps the record but loses its newline), reopened, appended to and
// reread. Every complete record must survive, the torn one must vanish,
// and the fresh append must land on its own line.
func TestTornTailEveryOffset(t *testing.T) {
	journalLine := func(fp string, n int) []byte {
		b, err := harness.EncodeRecord("soak-unit", fp, map[string]int{"n": n})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		lines [][]byte // the last is the one torn
		fresh []byte
	}{
		{"journal",
			[][]byte{journalLine("u0", 10), journalLine("u1", 11), journalLine("u2", 12)},
			journalLine("fresh", 13)},
		{"soak-ledger",
			[][]byte{
				mustMarshal(t, soak.LedgerLine{V: soak.LedgerVersion, Seed: 1, Index: 0, Key: "a", Design: "Tvarak"}),
				mustMarshal(t, soak.LedgerLine{V: soak.LedgerVersion, Seed: 1, Index: 1, Key: "b", GateFindings: []string{}}),
				mustMarshal(t, soak.LedgerLine{V: soak.LedgerVersion, Seed: 1, Index: 2, Key: "c", Armed: 3}),
			},
			mustMarshal(t, soak.LedgerLine{V: soak.LedgerVersion, Seed: 1, Index: 3, Key: "d"})},
		{"ops-ledger",
			[][]byte{
				mustMarshal(t, live.ResourceSample{UnixMS: 1, HeapAlloc: 1 << 20, Goroutines: 4}),
				mustMarshal(t, live.ResourceSample{UnixMS: 2, HeapAlloc: 2 << 20, Goroutines: 5}),
				mustMarshal(t, live.ResourceSample{UnixMS: 3, HeapAlloc: 3 << 20, AccessesPerSec: 1.5}),
			},
			mustMarshal(t, live.ResourceSample{UnixMS: 4})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "base.jsonl")
			l, err := applog.Create(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range tc.lines {
				if err := l.Append(line); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(base)
			if err != nil {
				t.Fatal(err)
			}
			last := tc.lines[len(tc.lines)-1]
			start := len(data) - len(last) - 1
			for off := start; off <= len(data); off++ {
				path := filepath.Join(dir, fmt.Sprintf("torn-%d.jsonl", off))
				if err := os.WriteFile(path, data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				want := tc.lines[:len(tc.lines)-1]
				if off >= len(data)-1 { // every byte but maybe the newline landed
					want = tc.lines
				}
				expectLines(t, readRaw(t, path), want)

				l, err := applog.Open(path)
				if err != nil {
					t.Fatalf("offset %d: reopen: %v", off, err)
				}
				if err := l.Append(tc.fresh); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				expectLines(t, readRaw(t, path), append(append([][]byte(nil), want...), tc.fresh))
			}
		})
	}
}

func TestReadAllRules(t *testing.T) {
	type rec struct{ N int }
	cases := []struct {
		name  string
		data  string
		want  int
		isErr bool
	}{
		{"clean", "{\"N\":1}\n{\"N\":2}\n", 2, false},
		{"no final newline", "{\"N\":1}\n{\"N\":2}", 2, false},
		{"torn final line dropped", "{\"N\":1}\n{\"N\"", 1, false},
		{"blank and whitespace lines skipped", "\n  \n{\"N\":1}\r\n\t\n", 1, false},
		{"malformed mid-file is an error", "{\"N\":1}\n{nope\n{\"N\":2}\n", 0, true},
		{"type mismatch mid-file is an error", "{\"N\":\"x\"}\n{\"N\":2}\n", 0, true},
		{"empty", "", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := applog.ReadAll[rec](strings.NewReader(tc.data))
			if tc.isErr != (err != nil) {
				t.Fatalf("err = %v, want error: %v", err, tc.isErr)
			}
			if len(got) != tc.want {
				t.Fatalf("read %d records, want %d", len(got), tc.want)
			}
		})
	}
	_, err := applog.ReadAll[rec](strings.NewReader("{\"N\":1}\n\n{bad\n{\"N\":2}\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "line 2:") {
		t.Fatalf("error %v does not name non-blank line 2", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := applog.Create(filepath.Join(t.TempDir(), "x.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.AppendJSON(1); err == nil {
		t.Fatal("append to a closed log succeeded")
	}
}

// FuzzReadAll checks the shared reader against a line-by-line reference:
// it accepts exactly when every non-blank line but the last is valid
// JSON, and returns every valid line (the last only when valid). Seeds
// are the ops-ledger reader's corpus, loaded from the live package's
// testdata, plus the inputs Add gives here. Run with the native engine:
//
//	go test ./internal/applog/ -fuzz FuzzReadAll -fuzztime 30s
func FuzzReadAll(f *testing.F) {
	dir := filepath.Join("..", "live", "testdata", "fuzz", "FuzzReadResourceLedger")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		header, body, _ := strings.Cut(string(b), "\n")
		body = strings.TrimSpace(body)
		if header != "go test fuzz v1" || !strings.HasPrefix(body, "[]byte(") {
			f.Fatalf("%s: unexpected corpus format", e.Name())
		}
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		f.Add([]byte(seed))
	}
	f.Add([]byte("{}\r\n[1]\n  \n\"s\""))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := applog.ReadAll[json.RawMessage](bytes.NewReader(data))

		var lines [][]byte
		for _, l := range bytes.Split(data, []byte("\n")) {
			l = bytes.TrimSuffix(l, []byte("\r")) // as bufio.ScanLines does
			if len(bytes.TrimSpace(l)) > 0 {
				lines = append(lines, l)
			}
		}
		var want [][]byte
		wantErr := false
		for i, l := range lines {
			if json.Valid(l) {
				want = append(want, bytes.Trim(l, " \t\r")) // a RawMessage excludes JSON whitespace
			} else if i < len(lines)-1 {
				wantErr = true
			}
		}
		if wantErr != (err != nil) {
			t.Fatalf("err = %v, want error: %v", err, wantErr)
		}
		if !wantErr {
			expectLines(t, got, want)
		}
	})
}
