// Host speed probe. A shared machine slows every program on it in episodes
// that last seconds to minutes, so a host time measured alone says as much
// about the neighbours as about the program. Dividing it by the time a fixed
// kernel takes in the same process cancels most of the episode:
// perfbench/run.py reports host times scaled to the reference host's quiet
// speed. The kernel does what the simulator's hot path does (string-keyed
// hash-map updates, a binary-heap queue, std::function calls, small
// allocations) but uses no SwitchFS code, and it runs before set-up, while
// the process has allocated nothing of SwitchFS, so a change to the program
// cannot move it.
#ifndef PERFBENCH_SRC_CALIBRATE_H_
#define PERFBENCH_SRC_CALIBRATE_H_

namespace perfbench {

// Seconds the kernel takes: the fastest of three runs of about 30 ms each.
double CalibrationSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CALIBRATE_H_
