//===- LocationTest.cpp - abstract stack location unit tests -------------------===//

#include "pointsto/Location.h"

#include <algorithm>

#include <gtest/gtest.h>

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::cfront;

namespace {

class LocationTest : public ::testing::Test {
protected:
  LocationTest() {
    IntTy = Types.intType();
    IntPtr = Types.pointerTo(IntTy);
    IntPtrPtr = Types.pointerTo(IntPtr);
    Arr = Types.arrayOf(IntPtr, 4);
  }

  TypeContext Types;
  LocationTable Locs;
  const Type *IntTy;
  const Type *IntPtr;
  const Type *IntPtrPtr;
  const Type *Arr;
};

TEST_F(LocationTest, VariableEntitiesAreInterned) {
  VarDecl V("x", SourceLoc(), IntPtr, VarDecl::Storage::Local);
  EXPECT_EQ(Locs.variable(&V), Locs.variable(&V));
  EXPECT_EQ(Locs.varLoc(&V), Locs.varLoc(&V));
  EXPECT_EQ(Locs.varLoc(&V)->str(), "x");
}

TEST_F(LocationTest, HeapAndNullAreSingletons) {
  EXPECT_EQ(Locs.heap(), Locs.heap());
  EXPECT_EQ(Locs.null(), Locs.null());
  EXPECT_TRUE(Locs.heap()->isHeap());
  EXPECT_TRUE(Locs.heap()->isSummary());
  EXPECT_TRUE(Locs.null()->isNull());
  EXPECT_FALSE(Locs.null()->isSummary());
}

TEST_F(LocationTest, PathsAreInterned) {
  VarDecl V("a", SourceLoc(), Arr, VarDecl::Storage::Local);
  const Location *Base = Locs.varLoc(&V);
  const Location *Head = Locs.withElem(Base, true);
  const Location *Tail = Locs.withElem(Base, false);
  EXPECT_EQ(Head, Locs.withElem(Base, true));
  EXPECT_NE(Head, Tail);
  EXPECT_EQ(Head->str(), "a[0]");
  EXPECT_EQ(Tail->str(), "a[1..]");
  EXPECT_FALSE(Head->isSummary()) << "a[0] is one real location";
  EXPECT_TRUE(Tail->isSummary()) << "a[1..] summarizes many";
}

TEST_F(LocationTest, LocationTypesFollowPaths) {
  VarDecl V("a", SourceLoc(), Arr, VarDecl::Storage::Local);
  const Location *Head = Locs.withElem(Locs.varLoc(&V), true);
  EXPECT_EQ(Head->type(), IntPtr) << "element of int*[4] is int*";
}

TEST_F(LocationTest, HeapAbsorbsPaths) {
  RecordDecl RD("S", SourceLoc(), false);
  FieldDecl F("f", SourceLoc(), IntPtr, &RD, 0);
  EXPECT_EQ(Locs.withField(Locs.heap(), &F), Locs.heap());
  EXPECT_EQ(Locs.withElem(Locs.heap(), false), Locs.heap());
}

TEST_F(LocationTest, HeadToTail) {
  VarDecl V("a", SourceLoc(), Arr, VarDecl::Storage::Local);
  const Location *Head = Locs.withElem(Locs.varLoc(&V), true);
  const Location *Tail = Locs.withElem(Locs.varLoc(&V), false);
  EXPECT_EQ(Locs.headToTail(Head), Tail);
  EXPECT_EQ(Locs.headToTail(Tail), Tail) << "already at the tail";
  EXPECT_EQ(Locs.headToTail(Locs.varLoc(&V)), Locs.varLoc(&V))
      << "no trailing head: unchanged";
}

TEST_F(LocationTest, SymbolicNaming) {
  VarDecl X("x", SourceLoc(), IntPtrPtr, VarDecl::Storage::Param);
  FunctionDecl F("f", SourceLoc(),
                 Types.functionType(IntTy, {IntPtrPtr}, false));
  const Location *XLoc = Locs.varLoc(&X);
  const Entity *S1 = Locs.symbolic(&F, XLoc);
  EXPECT_EQ(S1->name(), "1_x");
  EXPECT_EQ(S1->symbolicLevel(), 1u);
  EXPECT_EQ(S1->type(), IntPtr) << "1_x has type int* when x is int**";

  const Entity *S2 = Locs.symbolic(&F, Locs.get(S1));
  EXPECT_EQ(S2->name(), "2_x");
  EXPECT_EQ(S2->symbolicLevel(), 2u);
  EXPECT_EQ(S2->type(), IntTy);

  // Cached per (frame, parent).
  EXPECT_EQ(Locs.symbolic(&F, XLoc), S1);
}

TEST_F(LocationTest, SymbolicKLimitCollapses) {
  Locs.setSymbolicLevelLimit(3);
  VarDecl X("x", SourceLoc(), IntPtrPtr, VarDecl::Storage::Param);
  FunctionDecl F("f", SourceLoc(),
                 Types.functionType(IntTy, {IntPtrPtr}, false));
  const Entity *S = Locs.symbolic(&F, Locs.varLoc(&X));
  for (int Level = 2; Level <= 3; ++Level)
    S = Locs.symbolic(&F, Locs.get(S));
  EXPECT_EQ(S->symbolicLevel(), 3u);
  // Beyond the limit the chain folds into the last symbolic ...
  const Entity *Beyond = Locs.symbolic(&F, Locs.get(S));
  EXPECT_EQ(Beyond, S);
  // ... which thereby becomes a summary.
  EXPECT_TRUE(S->isCollapsed());
  EXPECT_TRUE(Locs.get(S)->isSummary());
}

TEST_F(LocationTest, PointerSubLocations) {
  RecordDecl RD("S", SourceLoc(), false);
  FieldDecl F1("p", SourceLoc(), IntPtr, &RD, 0);
  FieldDecl F2("v", SourceLoc(), IntTy, &RD, 1);
  FieldDecl F3("arr", SourceLoc(), Arr, &RD, 2);
  RD.addField(&F1);
  RD.addField(&F2);
  RD.addField(&F3);
  RD.setComplete();
  const Type *STy = Types.recordType(&RD);

  VarDecl V("s", SourceLoc(), STy, VarDecl::Storage::Local);
  std::vector<const Location *> Subs;
  Locs.pointerSubLocations(Locs.varLoc(&V), Subs);

  std::vector<std::string> Names;
  for (const Location *L : Subs)
    Names.push_back(L->str());
  // s.p, s.arr[0], s.arr[1..] carry pointers; s.v does not.
  EXPECT_EQ(Names.size(), 3u);
  EXPECT_NE(std::find(Names.begin(), Names.end(), "s.p"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "s.arr[0]"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "s.arr[1..]"),
            Names.end());
}

TEST_F(LocationTest, IdsAreDense) {
  VarDecl A("a", SourceLoc(), IntTy, VarDecl::Storage::Local);
  VarDecl B("b", SourceLoc(), IntTy, VarDecl::Storage::Local);
  const Location *LA = Locs.varLoc(&A);
  const Location *LB = Locs.varLoc(&B);
  EXPECT_EQ(Locs.byId(LA->id()), LA);
  EXPECT_EQ(Locs.byId(LB->id()), LB);
  EXPECT_EQ(LB->id(), LA->id() + 1);
}

TEST_F(LocationTest, CachedLookupsMatchGet) {
  RecordDecl RD("S", SourceLoc(), false);
  FieldDecl F("f", SourceLoc(), IntPtr, &RD, 0);
  RD.addField(&F);
  RD.setComplete();
  VarDecl S("s", SourceLoc(), Types.recordType(&RD), VarDecl::Storage::Local);
  VarDecl A("a", SourceLoc(), Arr, VarDecl::Storage::Local);
  const Entity *SE = Locs.variable(&S);
  const Entity *AE = Locs.variable(&A);

  // Each cached path answers what get() answers, whichever runs first.
  EXPECT_EQ(Locs.varLoc(&S), Locs.get(SE));
  EXPECT_EQ(Locs.get(AE), Locs.varLoc(&A));
  const Location *SF = Locs.withField(Locs.varLoc(&S), &F);
  EXPECT_EQ(SF, Locs.get(SE, {PathElem::field(&F)}));
  EXPECT_EQ(SF, Locs.withField(Locs.varLoc(&S), &F));
  const Location *Tail = Locs.get(AE, {PathElem::tail()});
  EXPECT_EQ(Locs.withElem(Locs.varLoc(&A), false), Tail);
  const Location *Head = Locs.withElem(Locs.varLoc(&A), true);
  EXPECT_EQ(Head, Locs.get(AE, {PathElem::head()}));
  EXPECT_EQ(Locs.headToTail(Head), Tail);
  EXPECT_EQ(Locs.headToTail(Head), Tail) << "cached sibling";
  EXPECT_EQ(Locs.heap(), Locs.get(Locs.heapEntity()));
  EXPECT_EQ(Locs.null(), Locs.get(Locs.nullEntity()));
}

TEST_F(LocationTest, IdsFollowFirstRequestOrder) {
  RecordDecl RD("S", SourceLoc(), false);
  FieldDecl P("p", SourceLoc(), IntPtr, &RD, 0);
  FieldDecl Q("q", SourceLoc(), IntPtr, &RD, 1);
  RD.addField(&P);
  RD.addField(&Q);
  RD.setComplete();
  VarDecl A("a", SourceLoc(), Types.recordType(&RD), VarDecl::Storage::Local);
  VarDecl B("b", SourceLoc(), Arr, VarDecl::Storage::Local);

  const Location *LA = Locs.varLoc(&A);
  const Location *LAP = Locs.withField(LA, &P);
  const Location *BTail = Locs.get(Locs.variable(&B), {PathElem::tail()});
  const Location *LB = Locs.varLoc(&B); // not made by the get above
  const Location *BHead = Locs.withElem(LB, true);
  EXPECT_EQ(Locs.headToTail(BHead), BTail);
  EXPECT_EQ(Locs.withElem(LB, false), BTail);
  EXPECT_EQ(Locs.withField(LA, &P), LAP);
  const Location *H = Locs.heap();
  const Location *N = Locs.null();
  const Location *LAQ = Locs.get(Locs.variable(&A), {PathElem::field(&Q)});
  EXPECT_EQ(Locs.withField(LA, &Q), LAQ);

  std::vector<uint32_t> Ids;
  for (const Location *L : {LA, LAP, BTail, LB, BHead, H, N, LAQ})
    Ids.push_back(L->id());
  EXPECT_EQ(Ids, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(Locs.numLocations(), 8u);
}

TEST_F(LocationTest, MultiElementGetCreatesNoPrefix) {
  RecordDecl Inner("I", SourceLoc(), false);
  FieldDecl G("g", SourceLoc(), IntPtr, &Inner, 0);
  Inner.addField(&G);
  Inner.setComplete();
  RecordDecl Outer("O", SourceLoc(), false);
  FieldDecl F("f", SourceLoc(), Types.recordType(&Inner), &Outer, 0);
  Outer.addField(&F);
  Outer.setComplete();
  VarDecl X("x", SourceLoc(), Types.recordType(&Outer),
            VarDecl::Storage::Local);

  const Location *XL = Locs.varLoc(&X);
  uint32_t Before = Locs.numLocations();
  const Location *XFG =
      Locs.get(Locs.variable(&X), {PathElem::field(&F), PathElem::field(&G)});
  EXPECT_EQ(XFG->str(), "x.f.g");
  EXPECT_EQ(XFG->type(), IntPtr);
  EXPECT_EQ(Locs.numLocations(), Before + 1) << "x.f was not created";

  const Location *XF = Locs.withField(XL, &F);
  EXPECT_EQ(XF->id(), XFG->id() + 1) << "x.f is made only when asked for";
  EXPECT_EQ(Locs.withField(XF, &G), XFG);
  EXPECT_EQ(Locs.numLocations(), Before + 2);
}

TEST_F(LocationTest, SummaryFollowsLateCollapse) {
  Locs.setSymbolicLevelLimit(2);
  VarDecl X("x", SourceLoc(), IntPtrPtr, VarDecl::Storage::Param);
  FunctionDecl F("f", SourceLoc(),
                 Types.functionType(IntTy, {IntPtrPtr}, false));
  const Entity *S1 = Locs.symbolic(&F, Locs.varLoc(&X));
  const Entity *S2 = Locs.symbolic(&F, Locs.get(S1));
  const Location *S2Loc = Locs.get(S2);
  const Location *S2Head = Locs.withElem(S2Loc, true);
  EXPECT_FALSE(S2Loc->isSummary());
  EXPECT_FALSE(S2Head->isSummary());

  // Past the limit the chain folds into 2_x, after its locations exist.
  EXPECT_EQ(Locs.symbolic(&F, S2Loc), S2);
  EXPECT_TRUE(S2Loc->isSummary());
  EXPECT_TRUE(S2Head->isSummary());
  EXPECT_FALSE(Locs.get(S1)->isSummary()) << "1_x is still one location";
}

} // namespace
