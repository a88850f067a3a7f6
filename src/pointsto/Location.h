//===- Location.h - Abstract stack locations --------------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract stack location model of Sec. 3.1. Every real stack
/// location involved in a points-to relationship is represented by
/// exactly one named abstract location (Property 3.1); a named abstract
/// location may represent one or more real locations (Property 3.2).
///
/// A Location is (root Entity, access Path). Entities are:
///   - named variables: locals, globals, parameters, simplifier temps;
///   - per-function `retval` pseudo-variables (our return-value
///     extension, see DESIGN.md);
///   - symbolic names (`1_x`, `2_x`, ...) standing for *invisible*
///     variables reachable through a parameter or global (Sec. 4.1);
///   - the single `heap` summary location;
///   - the distinguished `NULL` target;
///   - functions (targets of function pointers, Sec. 5);
///   - string literal storage.
///
/// Paths select struct fields and the head/tail halves of arrays: the
/// paper's a_head abstracts a[0] and a_tail abstracts a[1..n] (Sec. 3.2),
/// generalized here to nested aggregates (e.g. s.f[tail].g).
///
/// Interning resolves the hot lookups without building a path: each
/// Entity caches its path-less Location, each Location keeps a small
/// successor table for withField/withElem (and its tail sibling for
/// headToTail), and varLoc is one hash lookup from the VarDecl. The
/// (root, path) map remains for the cold multi-element get() calls.
/// The caches only memoize: a location is still created, and given its
/// dense id, exactly when get() first sees it.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_POINTSTO_LOCATION_H
#define MCPTA_POINTSTO_LOCATION_H

#include "cfront/AST.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mcpta {
namespace pta {

class Location;

/// Dense location identifier: assigned by LocationTable in creation
/// order (deterministic), O(1)-resolvable back to the Location via
/// LocationTable::byId. The analysis core keys every flat side table
/// and every points-to triple by these ids — no Location*-keyed ordered
/// maps on hot paths.
using LocationId = uint32_t;

/// Largest id a LocationTable mints: a points-to entry packs the target
/// id into 31 bits beside its D/P flag (PointsToSet::Entry).
constexpr LocationId MaxLocationId = 0x7fffffffu;

/// A root of the abstract stack: something nameable that storage hangs
/// off.
class Entity {
public:
  enum class Kind {
    Variable, // local / global / param / temp (see VarDecl::storage())
    Retval,   // per-function return-value pseudo-variable
    Symbolic, // invisible-variable stand-in (1_x, 2_x, ...)
    Heap,     // the single heap summary
    Null,     // the NULL target
    Function, // a function, as a function-pointer target
    String,   // storage of one string literal
  };

  Kind kind() const { return K; }
  const std::string &name() const { return Name; }
  const cfront::Type *type() const { return Ty; }

  /// Function owning this frame entity; null for globals and
  /// program-wide entities.
  const cfront::FunctionDecl *owner() const { return Owner; }

  const cfront::VarDecl *var() const { return Var; }
  const cfront::FunctionDecl *function() const { return Fn; }

  /// For symbolic entities: the location whose dereference this entity
  /// stands for, and the indirection level (1 for *x, 2 for **x, ...).
  const Location *symbolicParent() const { return SymParent; }
  unsigned symbolicLevel() const { return SymLevel; }

  bool isHeap() const { return K == Kind::Heap; }
  bool isNull() const { return K == Kind::Null; }
  bool isFunction() const { return K == Kind::Function; }
  bool isSymbolic() const { return K == Kind::Symbolic; }

  /// True for entities whose storage is on the (abstract) stack for the
  /// purposes of the paper's stack/heap statistics.
  bool isStackStorage() const {
    return K == Kind::Variable || K == Kind::Retval || K == Kind::Symbolic ||
           K == Kind::String;
  }

private:
  friend class LocationTable;
  Entity() = default;

  Kind K = Kind::Variable;
  std::string Name;
  const cfront::Type *Ty = nullptr;
  const cfront::FunctionDecl *Owner = nullptr;
  const cfront::VarDecl *Var = nullptr;
  const cfront::FunctionDecl *Fn = nullptr;
  const Location *SymParent = nullptr;
  unsigned SymLevel = 0;
  std::string SymBase; // base spelling used to name derived symbolics
  /// Set when the k-limit folded deeper levels into this entity, making
  /// it a summary of arbitrarily many invisible locations.
  bool Collapsed = false;
  /// Interning cache: the path-less location of this entity, once made.
  mutable const Location *RootLoc = nullptr;

public:
  bool isCollapsed() const { return Collapsed; }
};

/// One step in a location path.
struct PathElem {
  enum class Kind { Field, Head, Tail };
  Kind K = Kind::Field;
  const cfront::FieldDecl *Field = nullptr;

  static PathElem field(const cfront::FieldDecl *F) {
    return PathElem{Kind::Field, F};
  }
  static PathElem head() { return PathElem{Kind::Head, nullptr}; }
  static PathElem tail() { return PathElem{Kind::Tail, nullptr}; }

  bool operator<(const PathElem &O) const {
    if (K != O.K)
      return K < O.K;
    return Field < O.Field;
  }
  bool operator==(const PathElem &O) const {
    return K == O.K && Field == O.Field;
  }
};

/// An interned abstract stack location. Pointer identity is location
/// identity; Ids are dense and deterministic (assigned in creation
/// order, which is itself deterministic).
class Location {
public:
  uint32_t id() const { return Id; }
  const Entity *root() const { return Root; }
  const std::vector<PathElem> &path() const { return Path; }
  const cfront::Type *type() const { return Ty; }

  /// A summary location abstracts more than one real stack location, so
  /// it can never be strongly updated and pairs to it are never definite
  /// when it matters (a_tail, heap). Collapse is read live: symbolic()
  /// may fold an entity after its locations exist.
  bool isSummary() const {
    return HasTail || Root->isHeap() ||
           (Root->isSymbolic() && Root->isCollapsed());
  }

  bool isHeap() const { return Root->isHeap(); }
  bool isNull() const { return Root->isNull(); }
  bool isFunction() const { return Root->isFunction(); }

  /// Display name, e.g. "x", "s.next", "a[0]", "a[1..]", "2_x".
  std::string str() const;

private:
  friend class LocationTable;
  Location() = default;

  uint32_t Id = 0;
  const Entity *Root = nullptr;
  std::vector<PathElem> Path;
  const cfront::Type *Ty = nullptr;
  /// Some path element is an array tail (fixed at creation).
  bool HasTail = false;
  /// Interning caches, filled by LocationTable as lookups happen: the
  /// one-element extensions of this location (withField/withElem), and
  /// for a trailing-head location its tail sibling (headToTail).
  mutable std::vector<std::pair<PathElem, const Location *>> Succ;
  mutable const Location *TailSibling = nullptr;
};

/// Creates and interns entities and locations for a whole program run.
class LocationTable {
public:
  LocationTable() = default;
  LocationTable(const LocationTable &) = delete;
  LocationTable &operator=(const LocationTable &) = delete;

  //===--------------------------------------------------------------------===//
  // Entities
  //===--------------------------------------------------------------------===//
  const Entity *variable(const cfront::VarDecl *V);
  const Entity *retval(const cfront::FunctionDecl *F);
  const Entity *function(const cfront::FunctionDecl *F);
  const Entity *stringLit(unsigned Id, const cfront::Type *Ty);
  const Entity *heapEntity();
  const Entity *nullEntity();

  /// The symbolic entity standing for invisible variables reachable by
  /// dereferencing \p Parent inside \p Frame. Cached per (frame, parent).
  /// Symbolic chains deeper than symbolicLevelLimit() fold into the last
  /// entity (k-limiting), which is then a summary.
  const Entity *symbolic(const cfront::FunctionDecl *Frame,
                         const Location *Parent);

  unsigned symbolicLevelLimit() const { return SymbolicLevelLimit; }
  void setSymbolicLevelLimit(unsigned K) { SymbolicLevelLimit = K; }

  //===--------------------------------------------------------------------===//
  // Locations
  //===--------------------------------------------------------------------===//
  /// The location (Root, Path), created on first request. A multi-element
  /// path creates only the location itself, never its prefixes.
  const Location *get(const Entity *Root, std::vector<PathElem> Path = {});
  const Location *heap() { return rootLoc(heapEntity()); }
  const Location *null() { return rootLoc(nullEntity()); }
  const Location *varLoc(const cfront::VarDecl *V);
  const Location *fnLoc(const cfront::FunctionDecl *F) {
    return rootLoc(function(F));
  }
  const Location *byId(uint32_t Id) const { return LocationsById[Id]; }
  uint32_t numLocations() const {
    return static_cast<uint32_t>(LocationsById.size());
  }

  /// Visits every entity created so far (creation order). Used by the
  /// Table 2 statistics to size per-function abstract stacks.
  template <typename Fn> void forEachEntity(Fn F) const {
    for (const auto &E : Entities)
      F(E.get());
  }

  /// Appends a field selection (heap and NULL absorb paths).
  const Location *withField(const Location *L, const cfront::FieldDecl *F);
  /// Appends an array head/tail element.
  const Location *withElem(const Location *L, bool Head);
  /// Replaces a trailing Head with Tail (positive pointer arithmetic from
  /// the head of an array stays inside the same array).
  const Location *headToTail(const Location *L);

  /// All pointer-bearing sub-locations of L: L itself if its type is a
  /// pointer, plus recursively through struct fields and array elements.
  /// Used by map/unmap traversal and local initialization.
  void pointerSubLocations(const Location *L,
                           std::vector<const Location *> &Out);

private:
  Entity *makeEntity();
  /// Allocates the next dense id for (Root, Path).
  Location *create(const Entity *Root, std::vector<PathElem> Path);
  const Location *rootLoc(const Entity *E);
  /// L extended by one path element, through L's successor table.
  const Location *successor(const Location *L, PathElem PE);

  std::vector<std::unique_ptr<Entity>> Entities;
  std::vector<std::unique_ptr<Location>> Locations;
  std::vector<const Location *> LocationsById;

  std::map<const cfront::VarDecl *, const Entity *> VarEntities;
  std::unordered_map<const cfront::VarDecl *, const Location *> VarLocs;
  std::map<const cfront::FunctionDecl *, const Entity *> RetvalEntities;
  std::map<const cfront::FunctionDecl *, const Entity *> FnEntities;
  std::map<unsigned, const Entity *> StringEntities;
  const Entity *Heap = nullptr;
  const Entity *Null = nullptr;
  unsigned SymbolicLevelLimit = 5;
  std::map<std::pair<const cfront::FunctionDecl *, const Location *>,
           const Entity *>
      Symbolics;
  /// Locations with a non-empty path (path-less ones hang off their
  /// entity). Hot lookups hit the successor tables; only cold
  /// multi-element get() calls search here.
  std::map<std::pair<const Entity *, std::vector<PathElem>>, const Location *>
      LocationMap;
};

} // namespace pta
} // namespace mcpta

#endif // MCPTA_POINTSTO_LOCATION_H
