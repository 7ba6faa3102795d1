package tvarak_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tvarak"
)

// TestGoldenCampaignVilamb pins the oracle-judged fault campaign's JSONL
// report, Vilamb units included, byte for byte against a committed report
// from an earlier build:
//
//	tvarak-fault -campaign -seed 7 -n 56 -designs baseline,tvarak,vilamb -report -
//
// Every injection, detection, recovery, silent corruption, crash point and
// oracle verdict of all three designs is in the report, so a change to the
// oracle or to any redundancy path that moves a verdict shows here. After an
// intentional behaviour change, regenerate with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenCampaignVilamb .
func TestGoldenCampaignVilamb(t *testing.T) {
	rep, err := tvarak.RunFaultCampaign(tvarak.FaultCampaignOptions{
		Seed: 7, N: 56, Shrink: true,
		Designs: []tvarak.Design{tvarak.DesignBaseline, tvarak.DesignTvarak, tvarak.DesignVilamb},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tvarak.WriteFaultReport(&got, rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden-campaign-seed7-n56-vilamb.jsonl")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("campaign report drifted from golden %s.\nOracle verdicts must be byte-identical across refactors; if this change is intentional, regenerate with UPDATE_GOLDEN=1.\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}
