// Fixture cluster router: mints the grid.* metric names. grid.route.single
// is documented in the fixture docs/CLUSTER.md; grid.rollback.lost is the
// seeded undocumented-metric gap (L008).
namespace fx2 {

void export_counter(const char* name, unsigned long long value);

void router_counters() {
  export_counter("grid.route.single", 1);
  // fbclint:expect(L008) grid.rollback.lost is not documented
  export_counter("grid.rollback.lost", 2);
}

}  // namespace fx2
