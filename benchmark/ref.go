package main

import "time"

// The reference kernel. On the shared 2-core hosts this repository is
// measured on, the same repetition takes 0.36 s one minute and 0.65 s the
// next: neighbours contend for the last-level cache and memory bandwidth in
// bursts that last from seconds to minutes, so no estimator over a
// ten-second run can remove them. A dependent multiply chain does not feel
// that noise at all (r = 0.2 against the simulator's run time), but a toy
// interpreter working over a 16 MB store does (r = 0.65–0.8), because it
// stresses the same parts of the machine the simulator does: a branchy
// dispatch loop, and loads and stores spread over more memory than the
// cache holds. The runner times this kernel before and after every
// repetition and reports host times relative to it (see refScale), which
// brought the spread between ten-second runs from 12–22 % down to about 5 %.
//
// The kernel shares no code with the simulator, so no change to the
// simulator can move it.
const (
	refStoreWords = 1 << 22 // 16 MB of uint32
	refCodeWords  = 1 << 14
	refSteps      = 1_500_000
	refWalkSteps  = 1_500_000

	// refNominalS is the kernel's time on a quiet review host. Host times
	// are scaled by refNominalS/measured, so on such a host they read as
	// plain seconds.
	refNominalS = 0.025
)

var (
	refCode  [refCodeWords]uint32
	refStore = make([]uint32, refStoreWords)
)

func init() {
	x := uint64(7)
	for i := range refCode {
		x = x*6364136223846793005 + 1442695040888963407
		refCode[i] = uint32(x >> 32)
	}
}

// refKernel runs the reference kernel once and returns its wall time.
func refKernel() float64 {
	t0 := time.Now()
	var regs [8]uint32
	pc, x := uint32(0), uint32(12345)
	for n := 0; n < refSteps; n++ { // interpreter phase
		in := refCode[pc&(refCodeWords-1)]
		a, b, c := in>>3&7, in>>6&7, in>>9&7
		x = x*1664525 + 1013904223
		switch in & 7 {
		case 0:
			regs[a] = regs[b] + regs[c]
		case 1:
			regs[a] = regs[b] * (regs[c] | 1)
		case 2, 6:
			regs[a] = refStore[(x>>8^regs[b])&(refStoreWords-1)]
		case 3:
			refStore[(x>>8^regs[b])&(refStoreWords-1)] = regs[a] + 1
		case 4:
			if regs[a]&1 == 0 {
				pc += in >> 20
			}
		case 5:
			regs[a] = regs[b] - regs[c]
		default:
			regs[a] += uint32(n)
		}
		pc++
	}
	s := regs[0]
	for n := 0; n < refWalkSteps; n++ { // random read-modify-write phase
		x = x*1664525 + 1013904223
		j := (x >> 8) & (refStoreWords - 1)
		s += refStore[j]
		refStore[j] = s
	}
	refStore[0] = s
	return time.Since(t0).Seconds()
}
