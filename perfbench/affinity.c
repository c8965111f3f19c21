/* CPU affinity for the benchmark, which the OCaml Unix library does not
   expose. [perfbench_pin_here] pins the calling thread, and the
   processes it spawns from then on, to the CPU it is running on, and
   saves the mask it replaced; [perfbench_unpin] restores that mask. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

static cpu_set_t saved;

value perfbench_pin_here(value unit)
{
  (void)unit;
  cpu_set_t one;
  int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof saved, &saved) != 0)
    caml_failwith("perfbench: cannot read the CPU affinity");
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0)
    caml_failwith("perfbench: cannot pin to one CPU");
  return Val_int(cpu);
}

value perfbench_unpin(value unit)
{
  (void)unit;
  if (sched_setaffinity(0, sizeof saved, &saved) != 0)
    caml_failwith("perfbench: cannot restore the CPU affinity");
  return Val_unit;
}
