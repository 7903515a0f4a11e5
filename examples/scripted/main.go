// Example scripted: drive the simulator from a memory-access program —
// the scripted front end. One script expresses both variants of a
// strided-sum kernel: the `impulse` block runs on an Impulse system, the
// `else` block on a conventional one, so the same program is measured on
// both machines and must compute the same answer.
package main

import (
	"fmt"
	"log"

	"impulse"
)

// program sums a column of a 256x256 matrix of doubles (stride 2 KB —
// every element lands in its own cache line conventionally).
const program = `
# Fill column 3 of a 256x256 matrix: A[i][3] = i * 0.5
alloc mat 524288
set r1 24            # byte offset of A[0][3]
fset f0 0.0
repeat 256
  storef mat r1 f0
  fadd f0 f0 0.5
  add r1 r1 2048     # next row
end
flush mat 0 524288

impulse
  # Dense alias of the column: 8-byte objects at stride 2048.
  stride col 8 2048 256 0
  retarget col mat 522264 purge 24
  set r1 0
  repeat 256
    loadf f1 col r1
    acc f1
    add r1 r1 8
  end
else
  set r1 24
  repeat 256
    loadf f1 mat r1
    acc f1
    add r1 r1 2048
  end
end
`

func main() {
	log.SetFlags(0)
	prog, err := impulse.ParseScript(program)
	if err != nil {
		log.Fatal(err)
	}
	run := func(kind impulse.Options) impulse.ScriptResult {
		sys, err := impulse.NewSystem(kind)
		if err != nil {
			log.Fatal(err)
		}
		res, err := impulse.RunScript(sys, prog)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	conv := run(impulse.Options{Controller: impulse.Conventional})
	imp := run(impulse.Options{Controller: impulse.Impulse})
	if conv.Checksum != imp.Checksum {
		log.Fatalf("checksums differ: %v vs %v", conv.Checksum, imp.Checksum)
	}
	fmt.Printf("column sum = %v on both machines\n\n", conv.Checksum)
	fmt.Printf("conventional: %7d cycles, %6d bus bytes, L1 %4.1f%%\n",
		conv.Row.Cycles, conv.Row.Stats.BusBytes, conv.Row.L1Ratio*100)
	fmt.Printf("impulse:      %7d cycles, %6d bus bytes, L1 %4.1f%%\n",
		imp.Row.Cycles, imp.Row.Stats.BusBytes, imp.Row.L1Ratio*100)
	fmt.Printf("\nspeedup %.2fx from one script, no Go required\n",
		impulse.Speedup(conv.Row, imp.Row))
}
