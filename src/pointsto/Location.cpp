//===- Location.cpp - Abstract stack locations ------------------------------===//

#include "pointsto/Location.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::cfront;

std::string Location::str() const {
  std::string S = Root->name();
  for (const PathElem &E : Path) {
    switch (E.K) {
    case PathElem::Kind::Field:
      S += ".";
      S += E.Field->name();
      break;
    case PathElem::Kind::Head:
      S += "[0]";
      break;
    case PathElem::Kind::Tail:
      S += "[1..]";
      break;
    }
  }
  return S;
}

Entity *LocationTable::makeEntity() {
  Entities.push_back(std::unique_ptr<Entity>(new Entity()));
  return Entities.back().get();
}

const Entity *LocationTable::variable(const VarDecl *V) {
  auto It = VarEntities.find(V);
  if (It != VarEntities.end())
    return It->second;
  Entity *E = makeEntity();
  E->K = Entity::Kind::Variable;
  E->Name = V->name();
  E->Ty = V->type();
  E->Var = V;
  E->Owner = V->isGlobal() ? nullptr : V->owner();
  VarEntities[V] = E;
  return E;
}

const Entity *LocationTable::retval(const FunctionDecl *F) {
  auto It = RetvalEntities.find(F);
  if (It != RetvalEntities.end())
    return It->second;
  Entity *E = makeEntity();
  E->K = Entity::Kind::Retval;
  E->Name = "retval$" + F->name();
  E->Ty = F->returnType();
  E->Owner = F;
  RetvalEntities[F] = E;
  return E;
}

const Entity *LocationTable::function(const FunctionDecl *F) {
  auto It = FnEntities.find(F);
  if (It != FnEntities.end())
    return It->second;
  Entity *E = makeEntity();
  E->K = Entity::Kind::Function;
  E->Name = F->name();
  E->Ty = F->type();
  E->Fn = F;
  FnEntities[F] = E;
  return E;
}

const Entity *LocationTable::stringLit(unsigned Id, const Type *Ty) {
  auto It = StringEntities.find(Id);
  if (It != StringEntities.end())
    return It->second;
  Entity *E = makeEntity();
  E->K = Entity::Kind::String;
  E->Name = "str$" + std::to_string(Id);
  E->Ty = Ty;
  StringEntities[Id] = E;
  return E;
}

const Entity *LocationTable::heapEntity() {
  if (!Heap) {
    Entity *E = makeEntity();
    E->K = Entity::Kind::Heap;
    E->Name = "heap";
    Heap = E;
  }
  return Heap;
}

const Entity *LocationTable::nullEntity() {
  if (!Null) {
    Entity *E = makeEntity();
    E->K = Entity::Kind::Null;
    E->Name = "NULL";
    Null = E;
  }
  return Null;
}

/// Type of the storage reached by dereferencing a location of type Ty,
/// or null if not a pointer.
static const Type *pointeeType(const Type *Ty) {
  if (!Ty)
    return nullptr;
  if (const auto *PT = dynCast<PointerType>(Ty))
    return PT->pointee();
  return nullptr;
}

const Entity *LocationTable::symbolic(const FunctionDecl *Frame,
                                      const Location *Parent) {
  // K-limit: beyond SymbolicLevelLimit levels of indirection the chain
  // folds into the last symbolic, which then summarizes every deeper
  // invisible location. Keeps the location universe finite (and the
  // recursion fixed point terminating) on recursive stack structures.
  const Entity *PRoot = Parent->root();
  if (PRoot->isSymbolic() && PRoot->symbolicLevel() >= SymbolicLevelLimit) {
    const_cast<Entity *>(PRoot)->Collapsed = true;
    return PRoot;
  }

  auto Key = std::make_pair(Frame, Parent);
  auto It = Symbolics.find(Key);
  if (It != Symbolics.end())
    return It->second;

  Entity *E = makeEntity();
  E->K = Entity::Kind::Symbolic;
  E->Owner = Frame;
  E->SymParent = Parent;

  // Compute level and base spelling. For a pure pointer chain rooted at
  // x this yields the paper's 1_x, 2_x, ...; path components extend the
  // base (e.g. 2_x.next).
  std::string Base;
  unsigned Level = 1;
  const Entity *Root = Parent->root();
  if (Root->isSymbolic()) {
    Level = Root->symbolicLevel() + 1;
    Base = Root->SymBase;
  } else {
    Base = Root->name();
  }
  for (const PathElem &PE : Parent->path()) {
    switch (PE.K) {
    case PathElem::Kind::Field:
      Base += "." + PE.Field->name();
      break;
    case PathElem::Kind::Head:
      Base += "[0]";
      break;
    case PathElem::Kind::Tail:
      Base += "[1..]";
      break;
    }
  }
  E->SymLevel = Level;
  E->SymBase = Base;
  E->Name = std::to_string(Level) + "_" + Base;
  E->Ty = pointeeType(Parent->type());

  Symbolics[Key] = E;
  return E;
}

Location *LocationTable::create(const Entity *Root,
                                std::vector<PathElem> Path) {
  if (LocationsById.size() > MaxLocationId) {
    // Ids past 2^31 - 1 would alias in packed points-to keys.
    std::fprintf(stderr, "mcpta: fatal: more than %u abstract locations\n",
                 MaxLocationId + 1u);
    std::abort();
  }
  Locations.push_back(std::unique_ptr<Location>(new Location()));
  Location *L = Locations.back().get();
  L->Id = static_cast<LocationId>(LocationsById.size());
  L->Root = Root;
  L->Path = std::move(Path);

  // Compute the location's type by walking the path from the root type.
  const Type *Ty = Root->type();
  for (const PathElem &E : L->Path) {
    L->HasTail |= E.K == PathElem::Kind::Tail;
    if (!Ty)
      continue;
    switch (E.K) {
    case PathElem::Kind::Field:
      Ty = E.Field->type();
      break;
    case PathElem::Kind::Head:
    case PathElem::Kind::Tail:
      if (const auto *AT = dynCast<ArrayType>(Ty))
        Ty = AT->element();
      else
        Ty = nullptr; // index through a cast; type information is lost
      break;
    }
  }
  L->Ty = Ty;

  LocationsById.push_back(L);
  return L;
}

const Location *LocationTable::rootLoc(const Entity *E) {
  if (!E->RootLoc)
    E->RootLoc = create(E, {});
  return E->RootLoc;
}

const Location *LocationTable::get(const Entity *Root,
                                   std::vector<PathElem> Path) {
  if (Path.empty())
    return rootLoc(Root);
  auto [It, New] =
      LocationMap.try_emplace(std::make_pair(Root, std::move(Path)), nullptr);
  if (New)
    It->second = create(Root, It->first.second);
  return It->second;
}

const Location *LocationTable::varLoc(const VarDecl *V) {
  auto [It, New] = VarLocs.try_emplace(V, nullptr);
  if (New)
    It->second = rootLoc(variable(V));
  return It->second;
}

const Location *LocationTable::successor(const Location *L, PathElem PE) {
  for (const auto &[E, S] : L->Succ)
    if (E == PE)
      return S;
  std::vector<PathElem> Path = L->path();
  Path.push_back(PE);
  const Location *S = get(L->root(), std::move(Path));
  L->Succ.push_back({PE, S});
  return S;
}

const Location *LocationTable::withField(const Location *L,
                                         const FieldDecl *F) {
  if (L->isHeap() || L->isNull())
    return L; // heap and NULL absorb field selections
  return successor(L, PathElem::field(F));
}

const Location *LocationTable::withElem(const Location *L, bool Head) {
  if (L->isHeap() || L->isNull())
    return L;
  return successor(L, Head ? PathElem::head() : PathElem::tail());
}

const Location *LocationTable::headToTail(const Location *L) {
  if (L->path().empty() || L->path().back().K != PathElem::Kind::Head)
    return L;
  if (!L->TailSibling) {
    std::vector<PathElem> Path = L->path();
    Path.back() = PathElem::tail();
    L->TailSibling = get(L->root(), std::move(Path));
  }
  return L->TailSibling;
}

void LocationTable::pointerSubLocations(const Location *L,
                                        std::vector<const Location *> &Out) {
  const Type *Ty = L->type();
  if (L->isHeap()) {
    Out.push_back(L);
    return;
  }
  if (!Ty)
    return;
  switch (Ty->kind()) {
  case Type::Kind::Pointer:
    Out.push_back(L);
    return;
  case Type::Kind::Record: {
    const RecordDecl *RD = cast<RecordType>(Ty)->decl();
    for (const FieldDecl *F : RD->fields())
      if (F->type()->isPointerBearing())
        pointerSubLocations(withField(L, F), Out);
    return;
  }
  case Type::Kind::Array: {
    const auto *AT = cast<ArrayType>(Ty);
    if (!AT->element()->isPointerBearing())
      return;
    pointerSubLocations(withElem(L, /*Head=*/true), Out);
    pointerSubLocations(withElem(L, /*Head=*/false), Out);
    return;
  }
  default:
    return;
  }
}
