package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles begins the profiles -cpuprofile and -memprofile ask
// for; an empty path skips that profile. The returned stop ends the
// CPU profile and writes the heap profile; call it once, when the run
// is done. Baseline cells carry pprof labels "cell" and "mode", so
// `go tool pprof -tagfocus cell=fattree6/viol` narrows a profile to
// one cell.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
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
		runtime.GC() // up-to-date live-heap statistics
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memory profile: %w", err)
		}
		return f.Close()
	}, nil
}
