package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartTrace routes span emission to a JSONL file at path — the backing
// for a CLI's -trace flag. The returned stop function detaches the sink
// and closes the file; call it before the process exits so the last
// spans are flushed.
func StartTrace(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace file: %w", err)
	}
	SetSink(NewJSONLSink(f))
	return func() error {
		SetSink(nil)
		return f.Close()
	}, nil
}

// StartProfiles turns on the requested pprof outputs — the backing for a
// CLI's -cpuprofile and -memprofile flags (an empty path turns one off).
// The returned stop function finishes the CPU profile and snapshots the
// heap (after a GC, so the profile shows live objects rather than
// garbage).
func StartProfiles(cpuFile, memFile string) (stop func(), err error) {
	stop = func() {}
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memFile != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}
	return stop, nil
}
