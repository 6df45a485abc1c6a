// Command dynamicplans demonstrates parametric query optimization (§7.4 of
// the paper, the Graefe/Ward and Ioannidis et al. direction) by printing
// experiment E19: the optimal plan for `did <= $1` changes with the
// parameter, the plan diagram the plan cache keeps (parametric.Diagram)
// captures the crossover, and a plan frozen for the wrong parameter pays a
// large penalty that dispatch on the diagram avoids. Both plans run over
// segment files from a cold 256 KiB block cache, and the penalty is in bytes
// read.
package main

import (
	"fmt"

	"repro/internal/experiments"
)

func main() {
	fmt.Println("building Emp (100,000 rows, 2,000 departments) ...")
	t := experiments.E19Parametric()
	fmt.Print(t.Format())
	fmt.Println("\nthe frozen plan keeps probing the secondary index long after a scan is cheaper,")
	fmt.Println("re-reading the blocks the cache evicted between probes —")
	fmt.Println("exactly the risk §7.4 says dynamic plans were invented to avoid.")
}
