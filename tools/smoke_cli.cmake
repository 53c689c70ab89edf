# Drives the cesrm_cli subcommands end to end; any non-zero exit fails.
set(trace_file ${WORK}/smoke.trace)
file(REMOVE ${WORK}/smoke_lms.json ${WORK}/smoke_lms_metrics.json)
foreach(args
    "generate;--trace=4;--packets-cap=2500;--out=${trace_file}"
    "inspect;--in=${trace_file}"
    "estimate;--in=${trace_file};--method=yajnik"
    "estimate;--in=${trace_file};--method=minc"
    "simulate;--in=${trace_file};--protocol=srm"
    "simulate;--in=${trace_file};--protocol=cesrm;--router-assist"
    "simulate;--in=${trace_file};--protocol=cesrm;--cache-policy=oracle"
    "simulate;--in=${trace_file};--protocol=lms;--json=${WORK}/smoke_lms.json;--metrics-out=${WORK}/smoke_lms_metrics.json"
    "compare;--in=${trace_file}"
    "wire-gen;--out=${WORK}/smoke.wire;--count=200;--seed=42"
    "wire-check;--in=${WORK}/smoke.wire"
    "wire-dump;--in=${WORK}/smoke.wire;--max=3")
  execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cesrm_cli ${args} failed with ${rc}")
  endif()
endforeach()

# LMS runs through the experiment pipeline, so its artifact flags apply;
# no socket backend provides LMS router state, so netio-run refuses it.
foreach(artifact smoke_lms.json smoke_lms_metrics.json)
  if(NOT EXISTS ${WORK}/${artifact})
    message(FATAL_ERROR "simulate --protocol=lms did not write ${artifact}")
  endif()
endforeach()
execute_process(COMMAND ${CLI} netio-run --protocol=lms
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "netio-run --protocol=lms exited 0, want a refusal")
endif()

# The oracle cache policy reads side info derived from the trace; a socket
# run has none, so netio-run refuses the policy instead of degrading it.
execute_process(COMMAND ${CLI} netio-run --cache-policy=oracle
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "netio-run --cache-policy=oracle exited 0, want a refusal")
endif()

# Malformed input must be diagnosed (exit 2), never crash.
file(WRITE ${WORK}/smoke_bad.wire "not a wire frame")
execute_process(COMMAND ${CLI} wire-check --in=${WORK}/smoke_bad.wire
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "wire-check on garbage exited ${rc}, want 2")
endif()
