#!/usr/bin/env python3
"""Table-driven check of report.py's function-name parsing.

    python3 tools/sigprof/report_test.py

Each row is a demangled name as addr2line -C or c++filt prints it, and the
row the profile must charge it to. Exits 1 naming every row that differs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report import base_name  # noqa: E402

CASES = [
    # Plain, qualified and return-typed names.
    ("main", "main"),
    ("??", "??"),
    ("themis::Port::DispatchBurst(themis::Simulator&, unsigned long const*, unsigned long)",
     "themis::Port::DispatchBurst"),
    ("void themis::RnicHost::RunScheduler()", "themis::RnicHost::RunScheduler"),
    # Templates: arguments are part of the name, spaces inside them too.
    ("std::vector<int, std::allocator<int> >::push_back(int const&)",
     "std::vector<int, std::allocator<int> >::push_back"),
    ("void std::__adjust_heap<themis::Entry*, long, themis::Entry, "
     "__gnu_cxx::__ops::_Iter_comp_iter<themis::After> >(themis::Entry*, long, long, "
     "themis::Entry, __gnu_cxx::__ops::_Iter_comp_iter<themis::After>)",
     "std::__adjust_heap<themis::Entry*, long, themis::Entry, "
     "__gnu_cxx::__ops::_Iter_comp_iter<themis::After> >"),
    ("themis::InlineCallback<48ul>::InlineCallback<themis::Timer::Arm(long)::{lambda()#1}>"
     "(themis::Timer::Arm(long)::{lambda()#1}&&)",
     "themis::InlineCallback<48ul>::InlineCallback<themis::Timer::Arm(long)::{lambda()#1}>"),
    # Operators.
    ("themis::Rate::operator<(themis::Rate) const", "themis::Rate::operator<"),
    ("themis::Foo::operator()() const", "themis::Foo::operator()"),
    ("themis::InlineCallback<48ul>::operator bool() const",
     "themis::InlineCallback<48ul>::operator bool"),
    ("themis::Bar* themis::Foo::operator->() const", "themis::Foo::operator->"),
    ("themis::CalendarQueue::SortIntoRun(themis::CalendarQueue::Bucket const&)::"
     "{lambda(themis::CalendarQueue::Entry const&)#1}::operator()"
     "(themis::CalendarQueue::Entry const&) const",
     "themis::CalendarQueue::SortIntoRun(themis::CalendarQueue::Bucket const&)::"
     "{lambda(themis::CalendarQueue::Entry const&)#1}::operator()"),
    # Inlined frames: a lambda's call operator is named without parameters,
    # and a lambda in a const member function keeps that function's "const".
    ("operator()", "operator()"),
    ("themis::Foo::operator()", "themis::Foo::operator()"),
    ("themis::EcmpTuple::Serialize() const::{lambda(unsigned long, unsigned int)#1}::"
     "operator()(unsigned long, unsigned int) const",
     "themis::EcmpTuple::Serialize() const::{lambda(unsigned long, unsigned int)#1}::"
     "operator()"),
    # The anonymous namespace.
    ("(anonymous namespace)::TimedDispatch(themis::Simulator&, unsigned long const*, "
     "unsigned long)", "(anonymous namespace)::TimedDispatch"),
    ("int themis::(anonymous namespace)::Count<int>(int) const",
     "themis::(anonymous namespace)::Count<int>"),
    # Const-, volatile- and ref-qualified members.
    ("themis::CalendarQueue::pending() const", "themis::CalendarQueue::pending"),
    ("themis::Foo::get() &&", "themis::Foo::get"),
    ("themis::Foo::get() const volatile", "themis::Foo::get"),
    # GCC clone suffixes: each clone is charged to the function it clones.
    ("themis::Simulator::RunUntil(long) [clone .isra.0]", "themis::Simulator::RunUntil"),
    ("themis::Port::Send(themis::Packet) [clone .constprop.0]", "themis::Port::Send"),
    ("themis::Switch::Forward(themis::Packet const&) [clone .part.0]",
     "themis::Switch::Forward"),
    ("themis::ParseScenario(std::basic_string_view<char, std::char_traits<char> >) "
     "[clone .cold]", "themis::ParseScenario"),
    ("themis::CalendarQueue::RunFirst() const [clone .isra.0]",
     "themis::CalendarQueue::RunFirst"),
    ("void themis::Heap<int>::Sift(unsigned long) [clone .part.0] [clone .cold]",
     "themis::Heap<int>::Sift"),
    ("themis::Timer::Arm(long)::{lambda()#1}::operator()() const [clone .isra.0]",
     "themis::Timer::Arm(long)::{lambda()#1}::operator()"),
]


def main():
    failures = [(given, want, base_name(given)) for given, want in CASES
                if base_name(given) != want]
    for given, want, got in failures:
        print(f"base_name({given!r})\n  want {want!r}\n  got  {got!r}", file=sys.stderr)
    print(f"{len(CASES) - len(failures)}/{len(CASES)} base_name cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
