// Package profile writes the CPU and heap profiles that the command-line
// tools' -cpuprofile and -memprofile flags ask for, in the stdlib
// runtime/pprof format (`go tool pprof BINARY FILE` reads them).
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, unless it is empty. The
// returned stop function ends the CPU profile and then, unless memPath is
// empty, writes a heap profile (live and cumulative allocations) there.
// Calls to stop after the first do nothing.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // bring the live-heap statistics up to date
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
