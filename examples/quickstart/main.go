// Quickstart: run a 4-GPU AllReduce through the MCCS service on the
// paper's testbed topology, verify the result is the true elementwise
// sum, and print the achieved algorithm bandwidth.
package main

import (
	"fmt"
	"log"

	"mccs"
)

func main() {
	env, err := mccs.NewTestbed(mccs.SystemMCCS)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	// One GPU per host: ranks 0..3.
	var gpus []mccs.GPUID
	for _, h := range env.Cluster().Hosts {
		gpus = append(gpus, h.GPUs[0])
	}
	const count = 1 << 20 // 1M floats = 4 MB

	results := make([][]float32, len(gpus))
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.Scheduler().Go(fmt.Sprintf("rank%d", rank), func(p *mccs.Proc) {
			// The shim boundary: allocations and communicators go
			// through the provider's service.
			f := env.Frontend(gpu, "quickstart")
			buf, err := f.MemAlloc(p, gpu, count*4, true /* backed: carry real data */)
			if err != nil {
				log.Fatal(err)
			}
			for i := range buf.Data() {
				buf.Data()[i] = float32(rank + 1)
			}
			comm, err := f.CommInitRank(p, "job-0", len(gpus), rank, gpu)
			if err != nil {
				log.Fatal(err)
			}
			h, err := comm.AllReduce(p, nil, buf, count, nil)
			if err != nil {
				log.Fatal(err)
			}
			stats := h.Wait(p)
			results[rank] = buf.Data()
			if rank == 0 {
				fmt.Printf("AllReduce of %d floats across %d ranks finished in %v\n",
					count, len(gpus), stats.Elapsed())
				fmt.Printf("algorithm bandwidth: %.2f GB/s\n", stats.AlgBW()/1e9)
			}
		})
	}
	if err := env.Scheduler().Run(); err != nil {
		log.Fatal(err)
	}

	// 1+2+3+4 = 10 everywhere.
	for rank, data := range results {
		for i, v := range data {
			if v != 10 {
				log.Fatalf("rank %d elem %d = %g, want 10", rank, i, v)
			}
		}
	}
	fmt.Println("verified: every rank holds the elementwise sum")
}
