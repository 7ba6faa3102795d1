package soak

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func boolp(b bool) *bool { return &b }

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "soak.jsonl")
	l, err := CreateLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []LedgerLine{
		{Seed: 1, Index: 0, Key: "a", App: "redis", Design: "Tvarak", Armed: 3, Detected: 3, Recovered: 3, WallMS: 12},
		{Seed: 1, Index: 1, Key: "b", App: "ctree", Design: "Baseline", Chaos: true, IdentityOK: boolp(true), Killed: true, Resumed: true},
		{Seed: 1, Index: 2, Key: "c", App: "fio", Design: "Vilamb", GateFindings: []string{}},
	}
	for _, w := range want {
		if err := l.Append(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadLedger(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d lines, wrote %d", len(got), len(want))
	}
	for i := range want {
		want[i].V = LedgerVersion
		w, g := want[i], got[i]
		// Compare through JSON so the IdentityOK pointer compares by value.
		wb, _ := json.Marshal(w)
		gb, _ := json.Marshal(g)
		if !bytes.Equal(wb, gb) {
			t.Errorf("line %d round trip:\n got %s\nwant %s", i, gb, wb)
		}
		if i == 2 && g.GateFindings == nil {
			t.Error("clean gate check (empty list) read back as no-check (nil)")
		}
	}
}

func TestReadLedgerTornTailAndErrors(t *testing.T) {
	line := func(i int) string {
		b, _ := json.Marshal(LedgerLine{V: LedgerVersion, Seed: 9, Index: i, Key: "k"})
		return string(b)
	}
	cases := []struct {
		name  string
		data  string
		want  int
		isErr bool
	}{
		{"clean", line(0) + "\n" + line(1) + "\n", 2, false},
		{"torn final line dropped", line(0) + "\n" + line(1)[:20], 1, false},
		{"blank lines skipped", "\n" + line(0) + "\n\n" + line(1) + "\n\n", 2, false},
		{"mid-file garbage is fatal", line(0) + "\n{nope\n" + line(1) + "\n", 0, true},
		{"wrong version is fatal", strings.Replace(line(0), fmt.Sprintf(`"v":%d`, LedgerVersion), fmt.Sprintf(`"v":%d`, LedgerVersion+1), 1) + "\n", 0, true},
		{"version 1 line is fatal", `{"v":1,"seed":9,"i":0,"key":"k"}` + "\n", 0, true},
		{"empty", "", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadLedger(strings.NewReader(tc.data))
			if tc.isErr != (err != nil) {
				t.Fatalf("err = %v, want error: %v", err, tc.isErr)
			}
			if !tc.isErr && len(got) != tc.want {
				t.Fatalf("read %d lines, want %d", len(got), tc.want)
			}
		})
	}
}

func TestCheckVerdicts(t *testing.T) {
	cases := []struct {
		name string
		line LedgerLine
		want int // problems
	}{
		{"clean tvarak", LedgerLine{Design: "Tvarak", Armed: 5, Detected: 5, Recovered: 5}, 0},
		{"unit failure", LedgerLine{Design: "Tvarak", Failure: "boom"}, 1},
		{"undetected anywhere", LedgerLine{Design: "Baseline", Undetected: 2}, 1},
		{"unrecovered on tvarak", LedgerLine{Design: "Tvarak", Unrecovered: 1}, 1},
		{"unrecovered on baseline tolerated", LedgerLine{Design: "Baseline", Unrecovered: 1}, 0},
		{"unrecovered on vilamb tolerated", LedgerLine{Design: "Vilamb", Unrecovered: 1}, 0},
		{"identity mismatch", LedgerLine{Design: "Tvarak", Chaos: true, IdentityOK: boolp(false)}, 1},
		{"identity ok", LedgerLine{Design: "Tvarak", Chaos: true, IdentityOK: boolp(true)}, 0},
		{"clean gate check", LedgerLine{Design: "Tvarak", GateFindings: []string{}}, 0},
		{"gate findings", LedgerLine{Design: "Tvarak", GateFindings: []string{"heap-growth: x", "goroutine-leak: y"}}, 2},
		{"compound failure", LedgerLine{Design: "Tvarak", Failure: "boom", Undetected: 1, Unrecovered: 1, IdentityOK: boolp(false)}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Check([]LedgerLine{tc.line}); len(got) != tc.want {
				t.Fatalf("Check found %d problem(s) %v, want %d", len(got), got, tc.want)
			}
		})
	}
}

func TestCanonicalProjection(t *testing.T) {
	l := LedgerLine{
		V: LedgerVersion, Seed: 3, Index: 7, Key: "k", App: "redis", Design: "Tvarak",
		Armed: 4, Detected: 4, Recovered: 4,
		Chaos: true, IdentityOK: boolp(true),
		WallMS: 812, Resumed: true, Killed: true, GateFindings: []string{"heap-growth: z"},
	}
	c := l.Canonical()
	if c.WallMS != 0 || c.Resumed || c.Killed || c.GateFindings != nil {
		t.Fatalf("wall-clock fields survived the projection: %+v", c)
	}
	// Everything deterministic — including the chaos schedule and its
	// identity verdict — must survive.
	if !c.Chaos || c.IdentityOK == nil || !*c.IdentityOK {
		t.Fatalf("deterministic chaos fields were zeroed: %+v", c)
	}
	if c.Seed != l.Seed || c.Index != l.Index || c.Key != l.Key || c.Armed != l.Armed {
		t.Fatalf("identity fields changed: %+v", c)
	}
}

func TestTallyLines(t *testing.T) {
	lines := []LedgerLine{
		{Design: "Tvarak", Armed: 3, Fired: 2, Detected: 2, Recovered: 2, WallMS: 10, Chaos: true, Killed: true, Resumed: true, IdentityOK: boolp(true)},
		{Design: "Baseline", Armed: 4, Fired: 3, Silent: 3, WallMS: 5, GateFindings: []string{}},
		{Design: "Tvarak", Armed: 1, Fired: 1, Detected: 1, Recovered: 1, WallMS: 7},
	}
	tl := TallyLines(lines)
	if tl.Units != 3 || tl.Chaos != 1 || tl.Killed != 1 || tl.Resumed != 1 ||
		tl.Armed != 8 || tl.Fired != 6 || tl.Detected != 3 || tl.Recovered != 3 ||
		tl.Silent != 3 || tl.WallMS != 22 || tl.GateChecks != 1 {
		t.Fatalf("bad tally: %+v", tl)
	}
	if tl.ByDesign["Tvarak"] != 2 || tl.ByDesign["Baseline"] != 1 {
		t.Fatalf("bad per-design tally: %v", tl.ByDesign)
	}
}
