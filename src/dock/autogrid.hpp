#pragma once

/// \file autogrid.hpp
/// Grid-map generation — SciDock activity 5 (AutoGrid 4 analog).
///
/// For every ligand atom type present, the calculator samples the summed
/// receptor interaction on each grid point. The AD4 set has a type-specific
/// vdW/H-bond affinity map, a unit-charge electrostatic map and a
/// desolvation map. The Vina set has one map per non-hydrogen type holding
/// the whole Vina pair term, as Vina 1.1.2's grid cache does. Both engines
/// then score poses by trilinear interpolation into their set.
///
/// The sweep (DESIGN.md §10) reads the radial LUTs (energy_lut.hpp)
/// indexed by squared distance, with one bin per neighbour shared by
/// every map's channel. Each run of points on an x-row that share a
/// neighbour-list cell tests one short candidate list (the atoms within
/// the cutoff of the run's segment, in NeighborList::for_each_within
/// order), and each receptor type's channels are copied per call into
/// one bin-major slice, so a neighbour's samples sit in a few cache
/// lines. Every map value keeps the bits of a per-point for_each_within
/// loop over the tables. The calculator runs serially inside one
/// activation; parallelism comes from the executor running many
/// activations.

#include <functional>

#include "dock/energy_lut.hpp"
#include "dock/grid.hpp"
#include "dock/scoring.hpp"
#include "mol/molecule.hpp"

namespace scidock::dock {

/// Called after each z-slab finishes with (slab index, wall seconds). The
/// scidock AutoGrid stage installs one that feeds the obs metrics/trace
/// layer.
using SlabObserver = std::function<void(int iz, double seconds)>;

class GridMapCalculator {
 public:
  /// `receptor` must be prepared (typed + charged).
  explicit GridMapCalculator(const mol::Molecule& receptor,
                             SlabObserver slab_observer = nullptr);

  /// Compute `scoring`'s maps over `box` for the given ligand atom types.
  /// A Vina set skips the hydrogen types, whose Vina term is zero.
  GridMapSet calculate(const GridBox& box,
                       const std::vector<mol::AdType>& ligand_types,
                       ScoringFunction scoring = ScoringFunction::Ad4) const;

 private:
  const mol::Molecule& receptor_;
  SlabObserver slab_observer_;
  std::shared_ptr<const Ad4PairTables> tables_;
  std::shared_ptr<const VinaPairTables> vina_tables_;
  NeighborList neighbors_;
  /// Receptor-side factors hoisted out of the per-point kernel, indexed
  /// by atom: partial charge (electrostatic map) and the type's volume
  /// (desolvation map).
  std::vector<double> charge_;
  std::vector<double> volume_;
  std::vector<mol::AdType> type_;
};

/// `scoring`'s maps over `box` for the types present in `ligand`: what an
/// engine's own dock() computes when no AutoGrid output is staged.
GridMapSet ligand_maps(const mol::Molecule& receptor,
                       const mol::Molecule& ligand, const GridBox& box,
                       ScoringFunction scoring);

/// The Grid Parameter File (activity 4 output): the text AutoGrid consumes.
/// Mirrors the real GPF keywords the paper's workflow templates carry.
struct GridParameterFile {
  GridBox box;
  std::vector<mol::AdType> ligand_types;
  std::string receptor_file;
  std::string ligand_file;

  std::string to_text() const;
  static GridParameterFile parse(std::string_view text);
};

/// Activity 4: derive the GPF from a prepared receptor + ligand pair.
/// The box is centred on the receptor's binding pocket (approximated by
/// the receptor centroid) and sized to the ligand's gyration radius.
GridParameterFile make_gpf(const mol::Molecule& receptor,
                           const mol::Molecule& ligand,
                           double box_padding = 6.0, double spacing = 0.375);

/// All supported AutoDock types: the census of a campaign whose ligands
/// are not known, which covers any ligand.
const std::vector<mol::AdType>& screening_ligand_types();

/// Screening-campaign variant of make_gpf: the box half-extent is raised
/// to at least 12 Å and rounded up to a multiple of 4 Å, and the type set
/// is `census` (the AD types of the campaign's ligands) united with the
/// ligand's own types, in type order. Every ligand whose types the census
/// covers then maps to the *same* GPF for a given receptor, which is what
/// makes receptor-level grid-map reuse (ArtifactCache::get_or_compute_maps)
/// hit across the campaign's ligands; a ligand with a type outside the
/// census still gets a map for each of its atoms, under its own GPF.
GridParameterFile make_screening_gpf(
    const mol::Molecule& receptor, const mol::Molecule& ligand,
    double box_padding = 6.0, double spacing = 0.375,
    const std::vector<mol::AdType>& census = screening_ligand_types());

}  // namespace scidock::dock
