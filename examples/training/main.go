// Training: a data-parallel training loop driven through tenant GPU
// streams, exercising the paper's §4.1 synchronization design — compute
// kernels enqueue on the tenant's stream, the collective waits for them
// through the shim's stream events, and subsequent compute waits for the
// collective through the communicator event. The same loop runs under the
// NCCL baseline and under MCCS to compare iteration times.
package main

import (
	"fmt"
	"log"
	"time"

	"mccs"
)

const (
	gradElems   = 64 << 20 / 4 // 64 MB of gradients per bucket
	buckets     = 2
	computeTime = 30 * time.Millisecond
	iterations  = 8
)

func trainOnce(system mccs.System) time.Duration {
	env, err := mccs.NewTestbed(system)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	// Rank-to-host assignment in the order a topology-oblivious cloud
	// launcher produces (alternating racks): the NCCL baseline builds
	// its ring from these ranks and zigzags across racks; MCCS ignores
	// the user order and builds locality-aware rings.
	hosts := env.Cluster().Hosts
	var gpus []mccs.GPUID
	for _, hi := range []int{0, 2, 1, 3} {
		gpus = append(gpus, hosts[hi].GPUs[0])
	}
	var mean time.Duration
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.Scheduler().Go(fmt.Sprintf("trainer%d", rank), func(p *mccs.Proc) {
			f := env.Frontend(gpu, "train")
			var bufs []*mccs.Buffer
			for b := 0; b < buckets; b++ {
				buf, err := f.MemAlloc(p, gpu, gradElems*4, false)
				if err != nil {
					log.Fatal(err)
				}
				bufs = append(bufs, buf)
			}
			comm, err := f.CommInitRank(p, "train", len(gpus), rank, gpu)
			if err != nil {
				log.Fatal(err)
			}
			// The tenant's own compute stream.
			stream := env.Deployment().Device(gpu).NewStream("compute")
			var total time.Duration
			for it := 0; it < iterations; it++ {
				start := p.Now()
				var handles []*mccs.OpHandle
				for b := 0; b < buckets; b++ {
					// Backward segment producing bucket b's gradients.
					stream.Launch("backward", computeTime/buckets, nil)
					// The collective is ordered after that compute via
					// the stream-event machinery inside the shim.
					h, err := comm.AllReduce(p, nil, bufs[b], gradElems, stream)
					if err != nil {
						log.Fatal(err)
					}
					handles = append(handles, h)
				}
				// Optimizer step waits for the last collective (stream
				// ordering), then we synchronize the iteration.
				stream.Launch("optimizer", 2*time.Millisecond, nil)
				stream.Synchronize(p)
				for _, h := range handles {
					h.Wait(p)
				}
				total += time.Duration(p.Now().Sub(start))
			}
			if rank == 0 {
				mean = total / iterations
			}
		})
	}
	if err := env.Scheduler().Run(); err != nil {
		log.Fatal(err)
	}
	return mean
}

func main() {
	nccl := trainOnce(mccs.SystemNCCL)
	mccsT := trainOnce(mccs.SystemMCCS)
	fmt.Printf("mean iteration time, 4-GPU data-parallel, %d x %d MB gradient buckets:\n",
		buckets, gradElems*4>>20)
	fmt.Printf("  NCCL (topology-oblivious rings + ECMP): %v\n", nccl)
	fmt.Printf("  MCCS (provider rings + flow assignment): %v\n", mccsT)
	fmt.Printf("  speedup: %.2fx\n", float64(nccl)/float64(mccsT))
}
