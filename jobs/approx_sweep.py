"""spark-submit entrypoint for Tables F7/F8 (Figs. 7/8: approx time & error
vs ε). One sweep produces both tables."""
from repro.experiments.approx import print_approx
from repro.session import scale, session

if __name__ == "__main__":
    spark = session("repro-approx")
    df = print_approx(spark, scale=scale())
    df.to_csv("results_table_f7_f8.csv", index=False)
    time_pivot = df.pivot_table(index=["Dataset", "eps"], columns="Algorithm", values="time (s)")
    err_pivot = df.pivot_table(index=["Dataset", "eps"], columns="Algorithm", values="l1 error")
    print("\n--- F7: time (s) ---\n", time_pivot.round(2).to_string())
    print("\n--- F8: l1 error ---\n", err_pivot.to_string(float_format=lambda v: f"{v:.2e}"))
    spark.stop()
