// quickstart — dock one receptor-ligand pair end to end with both
// engines, printing the preparation steps, the docking results and the
// AutoDock-style .dlg log.
//
//   $ ./quickstart [RECEPTOR_CODE] [LIGAND_CODE]
//
// Codes default to the paper's best interaction, 2HHN-0E6 (cathepsin S
// with its arylaminoethyl amide ligand). Structures are produced by the
// deterministic synthetic generator, so any Table 2 code works offline.

#include <cstdio>
#include <string>

#include "data/generator.hpp"
#include "dock/autodock4.hpp"
#include "dock/dlg.hpp"
#include "dock/vina.hpp"
#include "mol/prepare.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace scidock;
  const std::string receptor_code = argc > 1 ? argv[1] : "2HHN";
  const std::string ligand_code = argc > 2 ? argv[2] : "0E6";

  // 1. Obtain structures (the stand-in for fetching them from RCSB-PDB).
  std::printf("== generating structures for %s (receptor) and %s (ligand)\n",
              receptor_code.c_str(), ligand_code.c_str());
  mol::Molecule receptor_raw = data::make_receptor(receptor_code);
  mol::Molecule ligand_raw = data::make_ligand(ligand_code);
  std::printf("   receptor: %d atoms, %d residues worth of chain\n",
              receptor_raw.atom_count(),
              data::receptor_residue_count(receptor_code));
  std::printf("   ligand:   %d heavy atoms\n", ligand_raw.heavy_atom_count());

  // 2. Prepare for docking (activities 2-3 of the SciDock workflow).
  std::printf("== preparing (Gasteiger charges, AutoDock types, torsion tree)\n");
  const mol::PreparedReceptor receptor = mol::prepare_receptor(receptor_raw);
  const mol::PreparedLigand ligand = mol::prepare_ligand(ligand_raw);
  std::printf("   ligand has %d rotatable bonds (TORSDOF)\n",
              ligand.torsions.torsion_count());

  // 3. Define the search box over the binding site.
  const dock::GridBox box =
      dock::GridBox::around(receptor.molecule.center(), 10.0, 0.55);

  // 4. Dock with AutoDock 4 (grid maps + Lamarckian GA).
  std::printf("== docking with AutoDock 4\n");
  dock::DockingParameterFile params;
  params.ga_runs = 4;
  params.ga_num_evals = 4000;
  dock::Autodock4Engine ad4(params);
  Rng rng_ad4(2014);
  const dock::DockingResult r_ad4 = ad4.dock(receptor, ligand, box, rng_ad4);
  std::printf("   best FEB %.2f kcal/mol after %lld energy evaluations\n",
              r_ad4.best().feb, r_ad4.energy_evaluations);

  // 5. Dock with Vina (its own grid maps + Monte Carlo chains).
  std::printf("== docking with AutoDock Vina\n");
  dock::VinaConfig cfg;
  cfg.exhaustiveness = 6;
  dock::VinaEngine vina(cfg);
  vina.steps_per_chain = 50;
  Rng rng_vina(2014);
  const dock::DockingResult r_vina = vina.dock(receptor, ligand, box, rng_vina);
  std::printf("   best affinity %.2f kcal/mol over %zu reported modes\n",
              r_vina.best().feb, r_vina.conformations.size());

  // 6. The .dlg docking log, as the real AutoDock writes it.
  std::printf("\n== AutoDock .dlg log =====================================\n%s",
              dock::write_dlg(r_ad4).c_str());
  std::printf("\n== Vina log ==============================================\n%s",
              dock::write_vina_log(r_vina).c_str());
  return 0;
}
