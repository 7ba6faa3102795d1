package live

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// RegisterOpsFlags registers the -ops-* option group every long-running
// CLI shares on fs. The returned config is filled in when fs is parsed.
func RegisterOpsFlags(fs *flag.FlagSet) *OpsConfig {
	c := &OpsConfig{}
	fs.StringVar(&c.Addr, "ops-addr", "", "serve live ops HTTP on this address (/metrics, /healthz, /runs, /debug/pprof); use :0 for a free port")
	fs.StringVar(&c.AddrFile, "ops-addr-file", "", "write the resolved ops listen address to this file (for scripts using -ops-addr :0)")
	fs.StringVar(&c.LedgerPath, "ops-ledger", "", "append periodic resource samples (heap, goroutines, RSS, throughput) as JSONL to this path; analyze with tools/opscheck")
	fs.DurationVar(&c.SampleEvery, "ops-sample", time.Second, "resource sample interval for -ops-ledger")
	return c
}

// Start is StartOps for the CLI named prog: the bound server address, if
// any, is announced on stderr.
func (c OpsConfig) Start(prog string, t *Telemetry) (*Ops, error) {
	o, err := StartOps(t, c)
	if err != nil {
		return nil, err
	}
	if a := o.Addr(); a != "" {
		fmt.Fprintf(os.Stderr, "%s: ops listening on http://%s\n", prog, a)
	}
	return o, nil
}

// ProfileFlags is the -cpuprofile/-memprofile option group.
type ProfileFlags struct{ CPU, Mem string }

// RegisterProfileFlags registers the profiling option group on fs.
func RegisterProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile taken after the run to this path")
	return p
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends profiling once the measured work is done: it stops
// the CPU profile and writes the heap profile.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if p.Mem == "" {
			return nil
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
