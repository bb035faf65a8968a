// Package hostprof backs the -cpuprofile and -memprofile flags of the
// command-line tools with runtime/pprof, so the host cost of any sweep or
// trace can be profiled without a test harness.
package hostprof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and arranges for a heap
// profile to be written to memPath; an empty path disables that profile.
// Both files are created before anything runs, so an unwritable path fails
// here instead of after a long sweep. The returned stop function ends the
// CPU profile and writes the heap profile; call it once, after the work.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				cpu.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			// Profile the live heap as of the end of the run.
			runtime.GC()
			errs = append(errs, pprof.WriteHeapProfile(mem), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
