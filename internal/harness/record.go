package harness

// Trace capture: run a spec-backed scenario once with the recorder
// attached and hand back the event log, stamped with everything needed to
// rebuild the run — seed, generator flags, and the knob configuration in
// the key=value form EncodeKnobs/DecodeKnobs define.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tmsync/internal/mech"
	"tmsync/internal/mono"
	"tmsync/internal/trace"
)

// specWorld renders a spec's geometry as a trace world header. The field
// set matches what the scenario digest covers, so a replayed program
// fingerprints identically to the recorded one.
func specWorld(sp *spec) trace.World {
	return trace.World{
		Threads:  sp.threads,
		Counters: sp.counters,
		BufCap:   sp.bufCap,
		HasQueue: sp.hasQueue,
		HasStack: sp.hasStack,
		HasMap:   sp.hasMap,
		MapKeys:  sp.mapKeys,
		QueueCap: sp.queueCap,
		StackCap: sp.stackCap,
		MapCap:   sp.mapCap,
	}
}

// Record executes s once under engine × m with a trace recorder attached
// and returns the captured trace alongside the run's differential result.
// Only spec-backed scenarios (generated or trace-replayed) can be
// recorded; registered workloads drive their own structures and have no
// op program to log.
func Record(s *Scenario, engine string, m mech.Mechanism, k Knobs) (*trace.Trace, Result, error) {
	if s.sp == nil {
		return nil, Result{}, fmt.Errorf("harness: scenario %s is not spec-backed and cannot be recorded", s.Name)
	}
	res := Result{Scenario: s.Name, Seed: s.Seed, Injected: s.Injected, ReplayArgs: s.ReplayArgs, Engine: engine, Mech: m}
	sys, err := NewSystemKnobs(engine, k)
	if err != nil {
		return nil, Result{}, err
	}
	rec := trace.NewRecorder(s.Name, s.Seed, EncodeKnobs(k), s.ReplayArgs, specWorld(s.sp))
	rec.Attach(sys)
	start := mono.Now()
	obs, runErr := runSpecRec(s.sp, sys, m, rec)
	res.Duration = start.Elapsed()
	res.Commits = sys.Stats.Commits.Load() + sys.Stats.ROCommits.Load()
	res.Aborts = sys.Stats.Aborts.Load()
	res.AbortRate = sys.Stats.AbortRate()
	if runErr != nil {
		res.Err = runErr
		return rec.Trace(), res, nil
	}
	res.Diff = Diff(s.Oracle(), obs)
	res.Pass = len(res.Diff) == 0
	return rec.Trace(), res, nil
}

// EncodeKnobs renders a knob configuration as the space-separated
// key=value stamp traces carry; zero-valued knobs are omitted, so the
// default configuration encodes as the empty string.
func EncodeKnobs(k Knobs) string {
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	if k.Stripes != 0 {
		add("stripes", strconv.Itoa(k.Stripes))
	}
	if k.Unbatched {
		add("unbatched", "1")
	}
	if k.CoalesceCommits != 0 {
		add("coalesce", strconv.Itoa(k.CoalesceCommits))
	}
	if k.CoalesceMaxDelay != 0 {
		add("max-delay", k.CoalesceMaxDelay.String())
	}
	if k.MinStripes != 0 {
		add("min-stripes", strconv.Itoa(k.MinStripes))
	}
	if k.MaxStripes != 0 {
		add("max-stripes", strconv.Itoa(k.MaxStripes))
	}
	if k.AdaptWindow != 0 {
		add("adapt-window", strconv.Itoa(k.AdaptWindow))
	}
	if k.ResizeEvery != 0 {
		add("resize-every", strconv.Itoa(k.ResizeEvery))
	}
	if len(k.ResizeSchedule) > 0 {
		ss := make([]string, len(k.ResizeSchedule))
		for i, v := range k.ResizeSchedule {
			ss[i] = strconv.Itoa(v)
		}
		add("resize-schedule", strings.Join(ss, ","))
	}
	if k.TimestampExtension {
		add("ext", "1")
	}
	return strings.Join(parts, " ")
}

// DecodeKnobs parses the stamp EncodeKnobs writes. Unknown keys are
// errors: a knob this build does not understand cannot be silently
// dropped without changing what configuration the replay runs under.
func DecodeKnobs(s string) (Knobs, error) {
	var k Knobs
	for _, part := range strings.Fields(s) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Knobs{}, fmt.Errorf("malformed knob %q (want key=value)", part)
		}
		key, val := kv[0], kv[1]
		atoi := func() (int, error) {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("knob %s: %q is not a non-negative integer", key, val)
			}
			return n, nil
		}
		var err error
		switch key {
		case "stripes":
			k.Stripes, err = atoi()
		case "unbatched":
			if val != "1" {
				return Knobs{}, fmt.Errorf("knob unbatched: want 1, got %q", val)
			}
			k.Unbatched = true
		case "coalesce":
			k.CoalesceCommits, err = atoi()
		case "max-delay":
			k.CoalesceMaxDelay, err = time.ParseDuration(val)
			if err == nil && k.CoalesceMaxDelay < 0 {
				err = fmt.Errorf("knob max-delay: negative duration %q", val)
			}
		case "min-stripes":
			k.MinStripes, err = atoi()
		case "max-stripes":
			k.MaxStripes, err = atoi()
		case "adapt-window":
			k.AdaptWindow, err = atoi()
		case "resize-every":
			k.ResizeEvery, err = atoi()
		case "resize-schedule":
			for _, f := range strings.Split(val, ",") {
				n, aerr := strconv.Atoi(f)
				if aerr != nil || n <= 0 {
					return Knobs{}, fmt.Errorf("knob resize-schedule: %q is not a positive integer", f)
				}
				k.ResizeSchedule = append(k.ResizeSchedule, n)
			}
		case "ext":
			if val != "1" {
				return Knobs{}, fmt.Errorf("knob ext: want 1, got %q", val)
			}
			k.TimestampExtension = true
		default:
			return Knobs{}, fmt.Errorf("unknown knob %q", key)
		}
		if err != nil {
			return Knobs{}, err
		}
	}
	return k, nil
}
