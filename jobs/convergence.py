"""spark-submit entrypoint for Table F6 (Figs. 5/6: ℓ1 error vs pushes)."""
from repro.experiments.convergence import print_convergence
from repro.session import scale, session

if __name__ == "__main__":
    spark = session("repro-convergence")
    df = print_convergence(spark, scale=scale())
    df.to_csv("results_table_f6.csv", index=False)
    spark.stop()
