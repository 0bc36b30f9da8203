package harness

// Differential testing of timestamp extension: Knobs.TimestampExtension
// lets the software TMs extend a snapshot in place instead of aborting
// on a too-new read. Extension changes which attempts abort and which
// revalidate, but must never change an observable outcome. Running the
// generated suite with extension off and on — bare, and crossed with
// the adaptive-resize and coalescing machinery — pins that claim
// against the sequential oracle.

import (
	"testing"
	"time"
)

func TestGeneratedSuiteIdenticalWithTimestampExtension(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, ext := range []bool{false, true} {
			for _, r := range RunScenarioKnobs(s, Engines, "", Knobs{TimestampExtension: ext}) {
				if !r.Pass {
					t.Errorf("ext=%v: %s", ext, r.String())
				}
			}
		}
	}
}

// TestGeneratedSuiteIdenticalExtensionUnderResizesAndCoalescing crosses
// extension with the other deferred-state machinery: forced online
// stripe resizes (which abort commits between timestamp and release)
// and coalesced wake scans (which ride on the lock-release ordering of
// commit timestamps).
func TestGeneratedSuiteIdenticalExtensionUnderResizesAndCoalescing(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	adaptive := Knobs{
		TimestampExtension: true,
		Stripes:            1,
		ResizeEvery:        5,
		ResizeSchedule:     []int{4, 64, 16, 1},
	}
	coalesce := Knobs{
		TimestampExtension: true,
		CoalesceCommits:    8,
		CoalesceMaxDelay:   2 * time.Millisecond,
	}
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, k := range []Knobs{adaptive, coalesce} {
			for _, r := range RunScenarioKnobs(s, Engines, "", k) {
				if !r.Pass {
					t.Errorf("knobs=%+v: %s", k, r.String())
				}
			}
		}
	}
}

// TestRetryOrigIdenticalWithTimestampExtension pins the Retry-Orig path,
// whose registry scans key off the write orecs committed by extended
// snapshots.
func TestRetryOrigIdenticalWithTimestampExtension(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	stmEngines := []string{"eager", "lazy"} // Retry-Orig needs STM metadata
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, r := range RunScenarioKnobs(s, stmEngines, "retry-orig", Knobs{TimestampExtension: true}) {
			if !r.Pass {
				t.Errorf("ext: %s", r.String())
			}
		}
	}
}

// TestInjectedFaultStillCaughtWithTimestampExtension keeps the checker
// honest: fewer aborts must not mask real invariant violations.
func TestInjectedFaultStillCaughtWithTimestampExtension(t *testing.T) {
	s := Generate(7, GenConfig{InjectFault: true})
	res := RunScenarioKnobs(s, Engines, "", Knobs{TimestampExtension: true})
	var rep Report
	rep.Add(res)
	if rep.AllPassed() {
		t.Error("ext: injected violation went undetected")
	}
}

// TestKnobRoundTripClock pins the trace stamp of the commit-clock knob
// that remains, ext.
func TestKnobRoundTripClock(t *testing.T) {
	in := Knobs{TimestampExtension: true}
	enc := EncodeKnobs(in)
	out, err := DecodeKnobs(enc)
	if err != nil {
		t.Fatalf("DecodeKnobs(%q): %v", enc, err)
	}
	if out.TimestampExtension != in.TimestampExtension {
		t.Fatalf("round trip %q: got %+v, want %+v", enc, out, in)
	}
	if _, err := DecodeKnobs("ext=2"); err == nil {
		t.Fatal("DecodeKnobs accepted ext=2")
	}
}
