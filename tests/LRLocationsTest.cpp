//===- LRLocationsTest.cpp - Table 1 L/R-location tests ------------------------===//
//
// Parameterized sweep over the rows of the paper's Table 1, evaluated
// through complete programs: each case pins down the L- or R-location
// set of a reference form against a known points-to set.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace mcpta;
using namespace mcpta::testutil;
using namespace mcpta::pta;
using namespace mcpta::simple;

namespace {

/// One Table 1 row exercised through a tiny program: the statement under
/// test writes &marker through/into the reference form; the expectation
/// strings name the locations that must (not) receive the marker pair.
struct Table1Case {
  const char *Name;
  const char *Source;
  /// Pairs expected at end of main, as "src>dst>D" / "src>dst>P".
  std::vector<const char *> Expected;
  std::vector<const char *> Absent;
};

/// Prints a case by its name, so the test's listed name carries no pointer
/// values and stays the same from one build to the next.
void PrintTo(const Table1Case &C, std::ostream *OS) { *OS << C.Name; }

class Table1Test : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Test, Row) {
  const Table1Case &C = GetParam();
  auto P = analyze(C.Source);
  for (const char *E : C.Expected) {
    std::string S(E);
    size_t A = S.find('>');
    size_t B = S.find('>', A + 1);
    std::string Src = S.substr(0, A);
    std::string Dst = S.substr(A + 1, B - A - 1);
    char D = S[B + 1];
    EXPECT_TRUE(mainHasPair(P, Src, Dst, D))
        << C.Name << ": missing (" << Src << "," << Dst << "," << D
        << ")\n  got: " << mainOut(P);
  }
  for (const char *E : C.Absent) {
    std::string S(E);
    size_t A = S.find('>');
    std::string Src = S.substr(0, A);
    std::string Dst = S.substr(A + 1);
    EXPECT_FALSE(mainHasPair(P, Src, Dst))
        << C.Name << ": spurious (" << Src << "," << Dst
        << ")\n  got: " << mainOut(P);
  }
}

const Table1Case Cases[] = {
    {"AddrOfVar",
     "int main(void){ int a; int *p; p = &a; return 0; }",
     {"p>a>D"},
     {}},
    {"AddrOfField",
     "struct S{int f;int g;}; int main(void){ struct S a; int *p; "
     "p = &a.f; return 0; }",
     {"p>a.f>D"},
     {"p>a.g"}},
    {"AddrOfElemZero",
     "int main(void){ int a[4]; int *p; p = &a[0]; return 0; }",
     {"p>a[0]>D"},
     {"p>a[1..]"}},
    {"AddrOfElemPositive",
     "int main(void){ int a[4]; int *p; p = &a[2]; return 0; }",
     {"p>a[1..]>P"},
     {"p>a[0]"}},
    {"AddrOfElemUnknown",
     "int main(void){ int a[4]; int i; int *p; i = 1; p = &a[i]; "
     "return 0; }",
     {"p>a[0]>P", "p>a[1..]>P"},
     {}},
    {"VarCopy",
     "int main(void){ int x; int *a; int *p; a = &x; p = a; return 0; }",
     {"p>x>D"},
     {}},
    {"FieldCopy",
     "struct S{int *f;}; int main(void){ int x; struct S a; int *p; "
     "a.f = &x; p = a.f; return 0; }",
     {"p>x>D"},
     {}},
    {"ElemZeroCopy",
     "int main(void){ int x; int *a[4]; int *p; a[0] = &x; p = a[0]; "
     "return 0; }",
     {"p>x>D"},
     {}},
    {"ElemPositiveCopy",
     "int main(void){ int x; int *a[4]; int *p; a[1] = &x; p = a[2]; "
     "return 0; }",
     {"p>x>P", "p>NULL>P"},
     {}},
    {"ElemUnknownCopy",
     "int main(void){ int x; int i; int *a[4]; int *p; i = 2; "
     "a[0] = &x; p = a[i]; return 0; }",
     {"p>x>P", "p>NULL>P"},
     {}},
    {"DerefLval",
     "int main(void){ int x; int *y; int **a; a = &y; *a = &x; "
     "return 0; }",
     {"y>x>D", "a>y>D"},
     {"y>NULL"}},
    {"DerefRval",
     "int main(void){ int x; int *y; int **a; int *p; y = &x; a = &y; "
     "p = *a; return 0; }",
     {"p>x>D"},
     {}},
    {"DerefFieldLval",
     "struct S{int *f;}; int main(void){ int x; struct S s; "
     "struct S *a; a = &s; (*a).f = &x; return 0; }",
     {"s.f>x>D"},
     {"s.f>NULL"}},
    {"ArrowFieldRval",
     "struct S{int *f;}; int main(void){ int x; struct S s; "
     "struct S *a; int *p; s.f = &x; a = &s; p = a->f; return 0; }",
     {"p>x>D"},
     {}},
    {"PtrElemZeroLval",
     "int main(void){ int x; int *b[4]; int **a; a = b; a[0] = &x; "
     "return 0; }",
     {"b[0]>x>D"},
     {"b[1..]>x"}},
    {"PtrElemPositiveLval",
     "int main(void){ int x; int *b[4]; int **a; a = b; a[2] = &x; "
     "return 0; }",
     {"b[1..]>x>P"},
     {"b[0]>x"}},
    {"PtrElemUnknownLval",
     "int main(void){ int x; int i; int *b[4]; int **a; i = 1; a = b; "
     "a[i] = &x; return 0; }",
     {"b[0]>x>P", "b[1..]>x>P"},
     {}},
    {"PtrElemRval",
     "int main(void){ int x; int *b[4]; int **a; int *p; b[0] = &x; "
     "a = b; p = a[0]; return 0; }",
     {"p>x>D"},
     {}},
    {"MallocRow",
     "void *malloc(int); int main(void){ int *p; p = (int *)malloc(4); "
     "return 0; }",
     {"p>heap>P"},
     {}},
    {"DoubleIndirection",
     "int main(void){ int x; int *y; int **a; int *p; int *q; "
     "y = &x; a = &y; p = *a; q = *a; return 0; }",
     {"p>x>D", "q>x>D"},
     {}},
    {"DerefPossibleChainIsPossible",
     "int main(void){ int x; int y; int c; int *p1; int **a; int *r; "
     "c = 1; if (c) p1 = &x; else p1 = &y; a = &p1; r = *a; return 0; }",
     {"r>x>P", "r>y>P"},
     {}},
};

INSTANTIATE_TEST_SUITE_P(Table1, Table1Test, ::testing::ValuesIn(Cases),
                         [](const ::testing::TestParamInfo<Table1Case> &I) {
                           return std::string(I.param.Name);
                         });

} // namespace
