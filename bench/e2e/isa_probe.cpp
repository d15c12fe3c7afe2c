// Reports which divergence-screen path the batch kernel compiled to. This
// file gets the kernel's own compile options (PROPANE_BATCH_OPTS), and the
// conditions mirror BatchedArrestmentSystem::check_divergence.
namespace propane::bench_e2e {

const char* screen_isa_path() {
#if defined(__AVX512BW__) && defined(__BMI2__)
  return "avx512bw+bmi2";
#elif defined(__AVX2__) && defined(__BMI2__)
  return "avx2+bmi2";
#else
  return "scalar";
#endif
}

}  // namespace propane::bench_e2e
