"""Planted vulnerability patterns for the app-scan input.

One vulnerable and one clean template per built-in detector (q01..q10). A
template holds function definitions only: the imports, the `$sp` global and
the table are shared by the whole generated module. Every function name a
template defines carries the `{s}` suffix, so copies can live side by side.
Imported names and loop labels are not renamed, because the detectors report
them as finding labels.

These templates belong to the benchmark; they are not read from the test
fixtures, so editing the fixtures cannot shift the benchmark's workloads.
"""

from __future__ import annotations

# shared import section: every import any template calls
IMPORTS = """\
  (import "env" "read_input" (func $read_input (result i32)))
  (import "env" "printf" (func $printf (param i32) (result i32)))
  (import "env" "gets" (func $gets (param i32) (result i32)))
  (import "env" "puts" (func $puts (param i32) (result i32)))
  (import "env" "malloc" (func $malloc (param i32) (result i32)))
  (import "env" "free" (func $free (param i32)))
  (import "env" "use_ptr" (func $use_ptr (param i32)))
  (import "env" "send" (func $send (param i32)))
  (import "env" "memcpy" (func $memcpy (param i32 i32 i32) (result i32)))
"""

SCAN_CONFIG = {
    "sources": ["$read_input", "$source"],
    "sinks": ["$memcpy", "$send", "$sink"],
    "dangerousFunctions": ["$gets", "$strcat"],
    "formatFunctions": {"$printf": 0},
    "allocPairs": {"$malloc": "$free"},
}

# qid -> (finding kind, function that reports it, finding label)
VULN_FINDINGS: dict[int, tuple[str, str, str]] = {
    1: ("FormatString", "$fmt_vuln", "$printf"),
    2: ("DangerousFunction", "$read_line", "$gets"),
    3: ("Use after free", "$uaf", "$free"),
    4: ("Double free", "$df", "$free"),
    5: ("Tainted CallIndirect", "$dispatch", "call_indirect"),
    6: ("Tainted", "$relay", "$send"),
    7: ("Tainted Local", "$handler", "$memcpy"),
    8: ("BO StaticBuffer", "$stack_copy", "$memcpy"),
    9: ("BO StaticMalloc", "$heap_copy", "$memcpy"),
    10: ("BO Loops", "$fill", "$L"),
}

# functions of each template that go into the shared table
TABLE_FUNCS: dict[tuple[int, bool], tuple[str, ...]] = {
    (5, True): ("$f1", "$f2"),
    (5, False): ("$f1", "$f2"),
}

VULN: dict[int, str] = {
    1: """\
  (func $fmt_vuln{s}
    call $read_input
    call $printf
    drop)
""",
    2: """\
  (func $read_line{s} (param $buf i32)
    local.get $buf
    call $gets
    drop)
""",
    3: """\
  (func $uaf{s}
    (local $p i32)
    i32.const 16
    call $malloc
    local.set $p
    local.get $p
    call $free
    local.get $p
    call $use_ptr)
""",
    4: """\
  (func $df{s}
    (local $p i32)
    i32.const 8
    call $malloc
    local.set $p
    local.get $p
    call $free
    local.get $p
    call $free)
""",
    5: """\
  (func $f1{s} (param $a i32) (result i32)
    local.get $a)
  (func $f2{s} (param $a i32) (result i32)
    local.get $a
    i32.const 1
    i32.add)
  (func $dispatch{s} (result i32)
    i32.const 7
    call $read_input
    call_indirect (param i32) (result i32))
""",
    6: """\
  (func $relay{s}
    (local $x i32)
    call $read_input
    local.set $x
    local.get $x
    call $send)
""",
    7: """\
  (func $handler{s} (export "handler{s}") (param $ptr i32)
    local.get $ptr
    call $helper{s})
  (func $helper{s} (param $p i32)
    local.get $p
    i32.const 0
    i32.const 64
    call $memcpy
    drop)
""",
    8: """\
  (func $stack_copy{s} (param $src i32)
    (local $fp i32)
    global.get $sp
    i32.const 32
    i32.sub
    local.tee $fp
    global.set $sp
    local.get $fp
    i32.const 16
    i32.add
    local.get $src
    i32.const 32
    call $memcpy
    drop
    local.get $fp
    i32.const 32
    i32.add
    global.set $sp)
""",
    9: """\
  (func $heap_copy{s} (param $src i32)
    (local $p i32)
    i32.const 16
    call $malloc
    local.set $p
    local.get $p
    local.get $src
    i32.const 32
    call $memcpy
    drop)
""",
    10: """\
  (func $fill{s} (result i32)
    (local $i i32)
    (local $ret i32)
    loop $L
      local.get $i
      i32.const 1
      i32.add
      local.tee $i
      i32.const 7
      i32.store8 offset=1024
      call $read_input
      local.tee $ret
      i32.const 10
      i32.ne
      br_if $L
    end
    local.get $i)
""",
}

CLEAN: dict[int, str] = {
    1: """\
  (func $fmt_via_local{s}
    (local $f i32)
    i32.const 1024
    local.set $f
    local.get $f
    call $printf
    drop)
  (func $fmt_direct{s}
    i32.const 2048
    call $printf
    drop)
""",
    2: """\
  (func $write_line{s} (param $buf i32)
    local.get $buf
    call $puts
    drop)
""",
    3: """\
  (func $no_uaf{s}
    (local $p i32)
    i32.const 16
    call $malloc
    local.set $p
    local.get $p
    call $use_ptr
    local.get $p
    call $free)
""",
    4: """\
  (func $single_free{s}
    (local $p i32)
    i32.const 8
    call $malloc
    local.set $p
    local.get $p
    call $free)
""",
    5: """\
  (func $f1{s} (param $a i32) (result i32)
    local.get $a)
  (func $f2{s} (param $a i32) (result i32)
    local.get $a
    i32.const 1
    i32.add)
  (func $dispatch{s} (result i32)
    i32.const 7
    i32.const 0
    call_indirect (param i32) (result i32))
""",
    6: """\
  (func $relay_const{s}
    i32.const 5
    call $send)
""",
    7: """\
  (func $handler{s} (param $ptr i32)
    local.get $ptr
    call $helper{s})
  (func $helper{s} (param $p i32)
    local.get $p
    i32.const 0
    i32.const 64
    call $memcpy
    drop)
""",
    8: """\
  (func $stack_copy_ok{s} (param $src i32)
    (local $fp i32)
    global.get $sp
    i32.const 32
    i32.sub
    local.tee $fp
    global.set $sp
    local.get $fp
    i32.const 16
    i32.add
    local.get $src
    i32.const 8
    call $memcpy
    drop
    local.get $fp
    i32.const 32
    i32.add
    global.set $sp)
  (func $global_buf{s} (param $src i32)
    i32.const 4096
    local.get $src
    i32.const 64
    call $memcpy
    drop)
""",
    9: """\
  (func $heap_copy_ok{s} (param $src i32)
    (local $p i32)
    i32.const 16
    call $malloc
    local.set $p
    local.get $p
    local.get $src
    i32.const 8
    call $memcpy
    drop)
""",
    10: """\
  (func $fill_checked{s} (result i32)
    (local $i i32)
    loop $L
      local.get $i
      i32.const 1
      i32.add
      local.tee $i
      i32.const 7
      i32.store8 offset=1024
      local.get $i
      i32.const 64
      i32.lt_s
      br_if $L
    end
    local.get $i)
""",
}
